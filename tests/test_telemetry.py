"""Tests for the service-wide telemetry plane (:mod:`repro.observe.telemetry`).

Four layers, bottom-up:

* unit — metrics registry semantics (families, labels, exposition),
  span sinks/trees/Perfetto export, flight-recorder rings and dumps,
  the HTTP exposition endpoint's pure ``render``;
* gating — ``REPRO_SIM_TELEMETRY`` off must mean ``maybe*()`` is None
  and simulation results are **bit-identical** to telemetry-on runs;
* service — a served job yields one connected span tree
  (client.run → serve.request → sched.job → worker.job →
  runner.simulate), a crashed worker dumps a flight-recorder artifact
  containing the job's final events, streamed interval/taxonomy events
  are bit-identical to a local observer run on the same stream-driven
  path, and the ``--metrics-port`` endpoint scrapes over real HTTP;
* CLI — ``repro top``, ``repro cache stats`` lifetime rates and
  ``--json``.

Server tests reuse the :mod:`tests.test_serve` harness idioms: thread
mode on a real localhost socket, sync tests driving :func:`run_async`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import BrokenExecutor

import pytest

import repro.analysis.result_cache as result_cache
import repro.analysis.runner as runner
from repro.cli import main
from repro.core import SimConfig
from repro.core.pipeline import Simulator
from repro.observe import stream, telemetry
from repro.observe.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    SpanContext,
    SpanSink,
    span_tree,
    spans_to_perfetto,
)
from repro.observe.telemetry.httpd import MetricsEndpoint
from repro.observe.telemetry.top import render_status, run_top
from repro.serve.client import ServeClient
from repro.serve.server import ExperimentServer
from repro.workloads.suite import load_workload

N_INSTRUCTIONS = 2_000


def run_async(coro, timeout: float = 120.0):
    """Drive one async test body to completion with a safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture()
def telemetry_on(monkeypatch):
    """Fresh singletons with the telemetry plane enabled."""
    monkeypatch.setenv("REPRO_SIM_TELEMETRY", "1")
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture()
def telemetry_off(monkeypatch):
    """Fresh singletons with the telemetry plane explicitly disabled."""
    monkeypatch.delenv("REPRO_SIM_TELEMETRY", raising=False)
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    result_cache._memory_cache.clear()
    yield tmp_path
    result_cache._memory_cache.clear()


async def _with_server(body, **server_kwargs):
    kwargs = {"mode": "thread", "shards": 2, "log": lambda *_: None}
    kwargs.update(server_kwargs)
    server = ExperimentServer(**kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.close()


# ---------------------------------------------------------------------------
# gating


class TestGating:
    def test_off_by_default(self, telemetry_off):
        assert telemetry.telemetry_level() == 0
        assert telemetry.telemetry_enabled() is False
        assert telemetry.maybe() is None
        assert telemetry.maybe_spans() is None
        assert telemetry.maybe_recorder() is None

    @pytest.mark.parametrize("raw", ["", "0"])
    def test_empty_and_zero_mean_off(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SIM_TELEMETRY", raw)
        assert telemetry.telemetry_level() == 0

    def test_on_returns_process_singletons(self, telemetry_on):
        tel = telemetry.maybe()
        assert isinstance(tel, MetricsRegistry)
        assert telemetry.maybe() is tel  # same object every call
        assert telemetry.registry() is tel
        assert isinstance(telemetry.maybe_spans(), SpanSink)
        assert isinstance(telemetry.maybe_recorder(), FlightRecorder)

    def test_override_beats_environment(self, telemetry_off):
        assert telemetry.telemetry_enabled(override=True) is True
        assert telemetry.maybe(override=True) is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_SIM_TELEMETRY", "1")
            assert telemetry.telemetry_enabled(override=False) is False
            assert telemetry.maybe(override=False) is None

    def test_reset_discards_state(self, telemetry_on):
        telemetry.registry().counter("repro_test_total").inc()
        before = telemetry.registry()
        telemetry.reset()
        after = telemetry.registry()
        assert after is not before
        assert after.value("repro_test_total") is None


# ---------------------------------------------------------------------------
# metrics registry


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        family = reg.counter("repro_jobs_total", "jobs", labels=("outcome",))
        family.inc(outcome="ok")
        family.inc(2, outcome="ok")
        family.inc(outcome="failed")
        assert reg.value("repro_jobs_total", outcome="ok") == 3
        assert reg.value("repro_jobs_total", outcome="failed") == 1

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("repro_jobs_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("repro_queue_depth", "depth", labels=("shard",))
        gauge.set(4, shard="0")
        gauge.labels(shard="0").inc()
        gauge.labels(shard="0").dec(2.0)
        assert reg.value("repro_queue_depth", shard="0") == 3.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_seconds", buckets=(0.1, 1.0)).labels()
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.cumulative() == [(0.1, 1), (1.0, 3), (float("inf"), 4)]
        assert hist.total == 4
        assert hist.sum == pytest.approx(6.05)

    def test_label_schema_is_enforced(self):
        reg = MetricsRegistry()
        family = reg.counter("repro_jobs_total", labels=("outcome",))
        with pytest.raises(ValueError):
            family.inc(shard="0")  # wrong label name
        with pytest.raises(ValueError):
            family.inc()  # missing label

    def test_reregistration_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        first = reg.counter("repro_jobs_total", labels=("outcome",))
        again = reg.counter("repro_jobs_total", labels=("outcome",))
        assert again is first
        with pytest.raises(ValueError):
            reg.gauge("repro_jobs_total", labels=("outcome",))
        with pytest.raises(ValueError):
            reg.counter("repro_jobs_total", labels=("shard",))

    def test_bad_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("Repro-Jobs")
        with pytest.raises(ValueError):
            reg.counter("0jobs")

    def test_value_never_creates_series(self):
        reg = MetricsRegistry()
        assert reg.value("repro_missing_total") is None
        reg.counter("repro_jobs_total", labels=("outcome",))
        assert reg.value("repro_jobs_total", outcome="never-fired") is None
        assert reg.families()[0].series() == []

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "jobs", labels=("outcome",)).inc(
            outcome="ok"
        )
        reg.histogram("repro_seconds", "latency", buckets=(1.0,)).observe(0.5)
        snapshot = reg.snapshot()
        assert snapshot["schema"] == 1
        by_name = {metric["name"]: metric for metric in snapshot["metrics"]}
        jobs = by_name["repro_jobs_total"]
        assert jobs["kind"] == "counter"
        assert jobs["samples"] == [{"labels": {"outcome": "ok"}, "value": 1}]
        seconds = by_name["repro_seconds"]["samples"][0]
        assert seconds["count"] == 1
        assert seconds["sum"] == pytest.approx(0.5)
        assert seconds["buckets"]["+Inf"] == 1
        json.dumps(snapshot)  # JSON-safe end to end

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "Jobs by outcome.", labels=("outcome",)).inc(
            outcome='we"ird\nlabel\\'
        )
        reg.histogram("repro_seconds", "Latency.", buckets=(0.5,)).observe(0.1)
        text = reg.render_prometheus()
        assert "# HELP repro_jobs_total Jobs by outcome.\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert 'repro_jobs_total{outcome="we\\"ird\\nlabel\\\\"} 1\n' in text
        assert 'repro_seconds_bucket{le="0.5"} 1\n' in text
        assert 'repro_seconds_bucket{le="+Inf"} 1\n' in text
        assert "repro_seconds_sum 0.1\n" in text
        assert "repro_seconds_count 1\n" in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# spans


class TestSpans:
    def test_context_wire_roundtrip(self):
        context = SpanContext(trace_id="t" * 32, span_id="s" * 16)
        assert SpanContext.from_wire(context.as_wire()) == context

    @pytest.mark.parametrize(
        "wire",
        [None, "nope", {}, {"trace_id": "t"}, {"trace_id": "", "span_id": "s"},
         {"trace_id": 7, "span_id": "s"}],
    )
    def test_from_wire_rejects_malformed(self, wire):
        assert SpanContext.from_wire(wire) is None

    def test_child_inherits_trace_and_parent(self):
        sink = SpanSink()
        root = sink.start_span("client.run")
        child = sink.start_span("serve.request", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_finish_retains_and_merges_attrs(self):
        sink = SpanSink()
        span = sink.start_span("sched.job", attrs={"key": "k"})
        assert len(sink) == 0  # unfinished spans are not retained
        sink.finish(span, outcome="ok")
        assert len(sink) == 1
        kept = sink.spans()[0]
        assert kept.end is not None and kept.end >= kept.start
        assert kept.attrs == {"key": "k", "outcome": "ok"}

    def test_record_ingests_worker_dicts(self):
        sink = SpanSink()
        worker = SpanSink()
        span = worker.start_span("worker.job")
        worker.finish(span)
        assert sink.record(span.to_dict()) is not None
        assert sink.record({"name": 3}) is None  # malformed → dropped
        assert [s.span_id for s in sink.spans()] == [span.span_id]

    def test_span_tree_groups_children_under_parents(self):
        sink = SpanSink()
        root = sink.start_span("client.run")
        child = sink.start_span("sched.job", parent=root.context)
        orphan = sink.start_span("worker.job", parent=SpanContext("t", "gone"))
        for span in (root, child, orphan):
            sink.finish(span)
        tree = span_tree(sink.spans())
        assert {s.name for s in tree[None]} == {"client.run", "worker.job"}
        assert [s.name for s in tree[root.span_id]] == ["sched.job"]

    def test_perfetto_export(self):
        sink = SpanSink()
        root = sink.start_span("client.run")
        child = sink.start_span("runner.simulate", parent=root.context)
        sink.finish(child)
        sink.finish(root)
        sink.start_span("serve.request")  # unfinished → excluded
        trace = spans_to_perfetto(sink.spans())
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"client", "runner"}
        assert len(slices) == 2
        assert min(e["ts"] for e in slices) == 0.0  # rebased to t=0
        by_name = {e["name"]: e for e in slices}
        assert by_name["client.run"]["tid"] == 1
        assert by_name["runner.simulate"]["tid"] == 5
        assert by_name["runner.simulate"]["args"]["parent_id"] == root.span_id
        json.dumps(trace)


# ---------------------------------------------------------------------------
# flight recorder


class TestFlightRecorder:
    def test_rings_are_per_shard_and_bounded(self):
        rec = FlightRecorder(maxlen=3)
        for i in range(5):
            rec.record("shard-0", "job-started", key=f"k{i}")
        rec.record("shard-1", "job-started", key="other")
        assert [e["key"] for e in rec.events("shard-0")] == ["k2", "k3", "k4"]
        assert [e["shard"] for e in rec.events("shard-1")] == ["shard-1"]

    def test_merged_view_sorted_by_seq(self):
        rec = FlightRecorder()
        rec.record("shard-1", "a")
        rec.record("shard-0", "b")
        rec.record("shard-1", "c")
        merged = rec.events()
        assert [e["event"] for e in merged] == ["a", "b", "c"]
        assert [e["seq"] for e in merged] == sorted(e["seq"] for e in merged)

    def test_dump_writes_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        rec = FlightRecorder()
        rec.record("shard-0", "job-started", key="k")
        rec.record("shard-0", "job-quarantined", key="k", reason="worker died")
        path = rec.dump("shard-0", "worker-crash")
        assert path is not None
        assert path.parent == tmp_path
        assert path.name == "flight-recorder-shard-0-001.json"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["reason"] == "worker-crash"
        assert [e["event"] for e in payload["events"]] == [
            "job-started",
            "job-quarantined",
        ]
        assert rec.dumps == [path]

    def test_dump_of_empty_ring_is_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        rec = FlightRecorder()
        assert rec.dump("shard-9", "timeout") is None
        assert rec.dumps == []


# ---------------------------------------------------------------------------
# HTTP exposition


class TestMetricsEndpoint:
    def test_render_paths_when_on(self, telemetry_on):
        telemetry.registry().counter("repro_test_total", "T.").inc()
        endpoint = MetricsEndpoint()
        prom = endpoint.render("/metrics").decode()
        assert "200 OK" in prom and "repro_test_total 1" in prom
        body = endpoint.render("/metrics.json").decode().split("\r\n\r\n", 1)[1]
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["metrics"][0]["name"] == "repro_test_total"
        assert b"ok" in endpoint.render("/healthz")
        assert b"404" in endpoint.render("/nope")

    def test_render_when_off_still_answers(self, telemetry_off):
        endpoint = MetricsEndpoint()
        assert b"# telemetry disabled" in endpoint.render("/metrics")
        body = endpoint.render("/metrics.json").decode().split("\r\n\r\n", 1)[1]
        assert json.loads(body) == {"enabled": False, "metrics": []}

    def test_live_scrape(self, telemetry_on):
        telemetry.registry().counter("repro_live_total", "L.").inc(7)

        async def scenario():
            endpoint = MetricsEndpoint()
            await endpoint.start()
            try:
                return await _http_get(endpoint.port, "/metrics")
            finally:
                await endpoint.close()

        response = run_async(scenario())
        assert "HTTP/1.1 200 OK" in response
        assert "repro_live_total 7" in response


async def _http_get(port: int, path: str) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.decode()


# ---------------------------------------------------------------------------
# bit-identity: telemetry must never perturb simulation results


class TestBitIdentity:
    def _run(self, observe: bool, override: str | None, monkeypatch) -> dict:
        with pytest.MonkeyPatch.context() as mp:
            if override is None:
                mp.delenv("REPRO_SIM_TELEMETRY", raising=False)
            else:
                mp.setenv("REPRO_SIM_TELEMETRY", override)
            telemetry.reset()
            try:
                spec = load_workload("fp_01", N_INSTRUCTIONS)
                sim = Simulator(spec.trace, SimConfig(), name="fp_01", observe=observe)
                return sim.run().to_dict()
            finally:
                telemetry.reset()

    def test_interpreter_results_identical_on_vs_off(self, monkeypatch):
        # Observer armed, as every served job runs.
        off = self._run(True, None, monkeypatch)
        on = self._run(True, "1", monkeypatch)
        assert off == on

    def test_kernel_engine_results_identical_on_vs_off(self, monkeypatch):
        # No observer: the plain stream-driven run behind published numbers.
        off = self._run(False, None, monkeypatch)
        on = self._run(False, "1", monkeypatch)
        assert off == on

    @pytest.mark.parametrize(
        "run, queued",
        [
            (
                lambda names: {
                    name: runner.run_cached(name, SimConfig(), N_INSTRUCTIONS)
                    for name in names
                },
                0,
            ),
            (lambda names: runner.run_suite(names, SimConfig(), N_INSTRUCTIONS, jobs=1), 0),
            (lambda names: runner.run_suite(names, SimConfig(), N_INSTRUCTIONS, jobs=2), 2),
        ],
        ids=["run_cached", "run_suite_in_process", "run_suite_pool"],
    )
    def test_cli_results_identical_on_vs_off(self, tmp_path, run, queued):
        # CLI paths, in process and in pool workers: on records each job's
        # worker spans (plus, for jobs queued for a worker slot, the
        # scheduler's sched.job span), off records nothing.
        workloads = ["fp_01", "int_02"]
        runs = {}
        for override in (None, "1"):
            with pytest.MonkeyPatch.context() as mp:
                if override is None:
                    mp.delenv("REPRO_SIM_TELEMETRY", raising=False)
                else:
                    mp.setenv("REPRO_SIM_TELEMETRY", override)
                mp.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path / str(override)))
                telemetry.reset()
                result_cache._memory_cache.clear()
                try:
                    results = run(workloads)
                    names = [span.name for span in telemetry.spans().spans()]
                    runs[override] = (
                        {name: result.to_dict() for name, result in results.items()},
                        sorted(names),
                    )
                finally:
                    telemetry.reset()
                    result_cache._memory_cache.clear()
        assert runs[None][0] == runs["1"][0]
        assert runs[None][1] == []
        assert runs["1"][1] == (
            ["runner.simulate"] * 2 + ["sched.job"] * queued + ["worker.job"] * 2
        )


# ---------------------------------------------------------------------------
# service acceptance: connected span tree through a served job


class TestServedSpanTree:
    def test_one_job_yields_one_connected_tree(self, fresh_cache, telemetry_on):
        async def scenario(server):
            async with ServeClient(port=server.port) as client:
                reply = await client.run(
                    ["fp_01"], n_instructions=N_INSTRUCTIONS
                )
            assert len(reply.results) == 1 and not reply.errors

        run_async(_with_server(scenario))
        spans = telemetry.spans().spans()
        roots = [s for s in spans if s.name == "client.run"]
        assert len(roots) == 1
        trace = telemetry.spans().for_trace(roots[0].trace_id)
        names = {span.name for span in trace}
        assert {
            "client.run",
            "serve.request",
            "sched.job",
            "worker.job",
            "runner.simulate",
        } <= names
        # Connected: exactly one root; every other span hangs off a
        # known parent (span_tree files unknown parents under None).
        tree = span_tree(trace)
        assert tree[None] == roots
        assert sum(len(children) for children in tree.values()) == len(trace)
        # And the tree is Perfetto-renderable: one slice per span, one
        # synthetic thread per service layer.
        events = spans_to_perfetto(trace)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(trace)
        layers = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"client", "serve", "sched", "worker", "runner"} <= layers

    def test_worker_spans_carry_job_attrs(self, fresh_cache, telemetry_on):
        async def scenario(server):
            async with ServeClient(port=server.port) as client:
                await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)

        run_async(_with_server(scenario))
        spans = {s.name: s for s in telemetry.spans().spans()}
        assert spans["worker.job"].attrs["workload"] == "fp_01"
        assert spans["runner.simulate"].attrs["instructions"] == N_INSTRUCTIONS
        assert spans["sched.job"].attrs["workload"] == "fp_01"


# ---------------------------------------------------------------------------
# service acceptance: crash → flight-recorder artifact


class TestCrashDump:
    def test_worker_crash_dumps_final_events(
        self, fresh_cache, telemetry_on, tmp_path, monkeypatch
    ):
        out = tmp_path / "artifacts"
        out.mkdir()
        monkeypatch.setenv("REPRO_BENCH_OUT", str(out))

        def crashing(workload, config, n_instructions, *args):
            if workload == "int_01":
                raise BrokenExecutor("worker killed")
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", crashing)

        async def scenario(server):
            async with ServeClient(port=server.port) as client:
                reply = await client.run(
                    ["int_01"], n_instructions=N_INSTRUCTIONS
                )
            assert len(reply.errors) == 1
            assert reply.errors[0]["code"] == "worker-crash"

        run_async(_with_server(scenario, shards=1))

        key = result_cache.cache_key("int_01", N_INSTRUCTIONS, SimConfig())
        dumps = telemetry.recorder().dumps
        assert dumps and dumps[-1].parent == out
        payload = json.loads(dumps[-1].read_text())
        assert payload["shard"] == "shard-0"
        assert payload["reason"] == "worker-crash"
        events = [(e["event"], e.get("key")) for e in payload["events"]]
        # A queued job has no slot yet: its submission is in the queue's
        # ring, and the slot's ring ends with its final events, in order.
        queue = telemetry.recorder().events("queue")
        assert ("job-submitted", key) in [(e["event"], e.get("key")) for e in queue]
        for expected in (
            ("job-started", key),
            ("job-retry", key),
            ("job-quarantined", key),
            ("shard-restart", key),
        ):
            assert expected in events
        assert events.index(("job-retry", key)) < events.index(
            ("job-quarantined", key)
        )
        # The restart counter carries the shard/reason labels.
        assert (
            telemetry.registry().value(
                "repro_sched_restarts_total", shard="0", reason="worker-crash"
            )
            == 1
        )


# ---------------------------------------------------------------------------
# satellite: streamed telemetry is bit-identical to a local observer run


class TestStreamedTelemetryBitIdentity:
    def test_streamed_events_match_local_run(self, fresh_cache, telemetry_on):
        async def scenario(server):
            async with ServeClient(port=server.port) as client:
                return await client.run(
                    ["fp_01"], n_instructions=N_INSTRUCTIONS, stream=True
                )

        reply = run_async(_with_server(scenario))
        assert len(reply.results) == 1 and not reply.errors
        streamed = [
            {k: v for k, v in event.items() if k not in ("type", "id")}
            for event in reply.events
        ]

        # The served worker simulated with the observer armed, through the
        # recorded branch stream like every other run.
        lookups = [
            telemetry.registry().value("repro_kernel_stream_total", outcome=outcome)
            for outcome in ("recorded", "reused")
        ]
        assert sum(count or 0 for count in lookups) >= 1

        # A local observer run must stream the exact same numbers.
        spec = load_workload("fp_01", N_INSTRUCTIONS)
        sim = Simulator(spec.trace, SimConfig(), name="fp_01", observe=True)
        result = sim.run()
        key = result_cache.cache_key("fp_01", N_INSTRUCTIONS, SimConfig())
        assert sim.observer is not None
        expected_intervals = stream.interval_events(
            key, "fp_01", result.intervals
        )
        expected_taxonomy = stream.taxonomy_event(
            key, "fp_01", sim.observer.taxonomy.as_dict()
        )

        assert [
            e for e in streamed if e["event"] == "interval"
        ] == expected_intervals
        assert [
            e for e in streamed if e["event"] == "taxonomy"
        ] == [expected_taxonomy]
        finished = [e for e in streamed if e["event"] == "job-finished"]
        assert len(finished) == 1 and finished[0]["cached"] is False


# ---------------------------------------------------------------------------
# satellite: cache stats lifetime rates + --json


def _run_cached_once() -> None:
    runner.run_cached("fp_01", SimConfig(), N_INSTRUCTIONS)


def _run_suite_once() -> None:
    runner.run_suite(["fp_01"], SimConfig(), N_INSTRUCTIONS, jobs=1)


def _serve_once() -> None:
    async def scenario(server):
        async with ServeClient(port=server.port) as client:
            reply = await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
        assert len(reply.results) == 1 and not reply.errors

    run_async(_with_server(scenario))


class TestCacheStatsCli:
    @pytest.mark.parametrize(
        "run_once",
        [_run_cached_once, _run_suite_once, _serve_once],
        ids=["run_cached", "run_suite", "served"],
    )
    def test_lifetime_rates_from_counters(
        self, fresh_cache, telemetry_on, capsys, run_once
    ):
        # Every path probes the caches the same way: a cold job counts one
        # miss (and one store), its repeat one memory hit.
        run_once()
        run_once()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "lifetime       hit rate 50.0% (memory 1 + disk 0 hits, 1 misses)" in out
        assert "1 stores" in out

    def test_lifetime_off_message(self, fresh_cache, telemetry_off, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "lifetime       (off — set REPRO_SIM_TELEMETRY=1 to track rates)" in out

    def test_json_flag(self, fresh_cache, telemetry_on, capsys):
        config = SimConfig()
        runner.run_cached("fp_01", config, N_INSTRUCTIONS)
        runner.run_cached("fp_01", config, N_INSTRUCTIONS)
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk_entries"] == 1
        lifetime = stats["telemetry"]
        assert lifetime["hits_memory"] == 1
        assert lifetime["misses"] == 1
        assert lifetime["stores"] == 1
        assert lifetime["hit_rate"] == 0.5


# ---------------------------------------------------------------------------
# serve --metrics-port + status telemetry snapshot


class TestServeMetricsPort:
    def test_scrape_through_experiment_server(self, fresh_cache, telemetry_on):
        async def scenario(server):
            assert server.metrics_port not in (None, 0)  # read back after bind
            async with ServeClient(port=server.port) as client:
                await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
                status = await client.status()
            text = await _http_get(server.metrics_port, "/metrics")
            return status, text

        status, text = run_async(_with_server(scenario, metrics_port=0))
        assert 'repro_serve_requests_total{verb="run"} 1' in text
        assert 'repro_sched_jobs_total{outcome="requested"} 1' in text
        assert "repro_sched_job_seconds_bucket" in text
        # The status verb carries the same registry as a JSON snapshot.
        names = {m["name"] for m in status["telemetry"]["metrics"]}
        assert "repro_serve_requests_total" in names
        assert "repro_sched_jobs_total" in names

    def test_status_telemetry_is_null_when_off(self, fresh_cache, telemetry_off):
        async def scenario(server):
            async with ServeClient(port=server.port) as client:
                return await client.status()

        status = run_async(_with_server(scenario))
        assert status["telemetry"] is None


# ---------------------------------------------------------------------------
# repro top


class _ServerThread:
    """A live server on a background thread (its own event loop), so the
    synchronous ``repro top`` CLI can poll it from the test thread."""

    def __init__(self, **kwargs):
        self._kwargs = {"mode": "thread", "shards": 1, "log": lambda *_: None}
        self._kwargs.update(kwargs)
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port = 0

    async def _serve(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = ExperimentServer(**self._kwargs)
        await server.start()
        self.port = server.port
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def __enter__(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )
        self._thread.start()
        assert self._started.wait(timeout=30), "server did not start"
        return self

    def __exit__(self, *exc):
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


class TestReproTop:
    def test_render_status_frame(self):
        status = {
            "protocol": 2,
            "max_pending": 64,
            "scheduler": {
                "mode": "thread",
                "shards": 2,
                "queued": 1,
                "in_flight": 1,
                "restarts": 0,
                "quarantined": ["k"],
                "counters": {"jobs_requested": 5, "jobs_simulated": 3},
            },
            "cache": {
                "disk_entries": 3,
                "disk_bytes": 1024,
                "directory": "/tmp/c",
                "disk_enabled": True,
                "telemetry": {
                    "hit_rate": 0.25,
                    "hits_memory": 1,
                    "hits_disk": 0,
                    "misses": 3,
                    "evictions": 0,
                },
            },
            "telemetry": {
                "metrics": [
                    {
                        "name": "repro_sched_jobs_total",
                        "samples": [
                            {"labels": {"outcome": "simulated"}, "value": 3}
                        ],
                    }
                ]
            },
        }
        frame = render_status(status, endpoint="127.0.0.1:9")
        assert "repro serve @ 127.0.0.1:9 · protocol 2 · mode thread · shards 2" in frame
        assert "jobs: requested 5" in frame and "simulated 3" in frame
        assert "1 quarantined" in frame
        assert "cache: 3 entries / 1024 bytes @ /tmp/c (disk on)" in frame
        assert "cache lifetime: hit rate 25.0%" in frame
        assert "telemetry: on (1 metric families)" in frame
        assert "repro_sched_jobs_total{outcome=simulated} 3" in frame

    def test_render_status_telemetry_off(self):
        frame = render_status({"scheduler": {}, "cache": {}, "telemetry": None})
        assert "telemetry: off (server runs without REPRO_SIM_TELEMETRY)" in frame

    def test_top_once_against_live_server(self, fresh_cache, telemetry_on, capsys):
        with _ServerThread() as server:
            code = main(
                ["top", "--port", str(server.port), "--once"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro serve @ 127.0.0.1:" in out
        assert "protocol 2" in out
        assert "telemetry: on" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_top_json_frame(self, fresh_cache, telemetry_on, capsys):
        with _ServerThread() as server:
            code = run_top("127.0.0.1", server.port, once=True, as_json=True)
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["protocol"] == 2
        assert status["telemetry"] is not None

    def test_top_unreachable_port_exits_nonzero(self, capsys):
        with _ServerThread() as server:
            dead_port = server.port  # valid while the context is open
        # Out of the context the server is gone: the port refuses.
        code = main(["top", "--port", str(dead_port), "--once"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().out

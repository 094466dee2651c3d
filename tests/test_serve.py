"""End-to-end tests for the experiment server (:mod:`repro.serve`).

The headline property is **exactly-once execution**: any number of
concurrent clients submitting overlapping experiment matrices must
trigger exactly one simulation per unique ``(workload, config,
n_instructions)`` cache key — everything else coalesces onto the same
flight or is served from cache without touching a worker pool.

Tests run the real server on a real localhost socket with the scheduler
in ``thread`` mode (same-process workers, so the run-counter hook can
observe every execution).  No pytest-asyncio in the container: tests are
sync functions driving :func:`run_async`.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from collections import Counter

import pytest

import repro.analysis.runner as runner
import repro.serve.server as server_module
from repro.core import SimConfig
from repro.serve.client import RunReply, ServeClient, ServeRequestError
from repro.serve.protocol import (
    ERROR_CODES,
    ServeError,
    decode_line,
    encode_message,
    expand_matrix,
    parse_run_request,
)
from repro.serve.server import ExperimentServer

N_INSTRUCTIONS = 2_000
WORKLOADS = ("fp_01", "int_01", "srv_02")


def run_async(coro, timeout: float = 120.0):
    """Drive one async test body to completion with a safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


#: The debug-mode loop's ``slow_callback_duration``: one callback holding
#: the loop longer is a stall.  asyncio's own default; clean runs of
#: ``TestLoopStalls`` peak at 35-46 ms on a 2-CPU host (a thread slot
#: starting while another simulates), so this leaves about 2x headroom.
STALL_SECONDS = 0.1


class _StallLog(logging.Handler):
    """Collects asyncio's debug-mode "Executing <handle> took N seconds"
    warnings: one per callback that held the loop past its threshold."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.stalls: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("Executing "):
            self.stalls.append(message)


def run_debug(coro, timeout: float = 60.0):
    """Like :func:`run_async`, on a debug-mode loop that reports every
    callback slower than :data:`STALL_SECONDS`: ``(result, stalls)``.

    The loop runs in its own thread, so a loop that never gets control
    back (a lock held across an ``await`` and then taken on the loop)
    fails the test instead of hanging it."""
    log = _StallLog()
    logger = logging.getLogger("asyncio")
    logger.addHandler(log)
    outcome: dict[str, object] = {}

    async def main():
        asyncio.get_running_loop().slow_callback_duration = STALL_SECONDS
        return await asyncio.wait_for(coro, timeout)

    def loop_thread():
        try:
            outcome["result"] = asyncio.run(main(), debug=True)
        except BaseException as error:  # re-raised in the test's thread
            outcome["error"] = error

    thread = threading.Thread(target=loop_thread, daemon=True)
    thread.start()
    thread.join(timeout + 10.0)
    logger.removeHandler(log)
    if thread.is_alive():
        pytest.fail(f"the event loop is wedged; stalls so far: {log.stalls}")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"], log.stalls


async def _until_running(client: ServeClient) -> None:
    """Poll ``status`` until a job occupies a slot."""
    for _ in range(200):
        status = await client.status()
        if status["scheduler"]["in_flight"] >= 1:
            return
        await asyncio.sleep(0.02)
    pytest.fail("the job never started running")


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    runner._memory_cache.clear()
    yield tmp_path
    runner._memory_cache.clear()


@pytest.fixture()
def run_counter(monkeypatch):
    """Count every actual job execution, keyed by cache key."""
    calls: Counter[str] = Counter()
    lock = threading.Lock()

    def counting(workload, config, n_instructions, *args):
        with lock:
            calls[runner.cache_key(workload, n_instructions, config)] += 1
        return runner.run_job(workload, config, n_instructions, *args)

    monkeypatch.setattr(runner, "job_entry", counting)
    return calls


async def _with_server(body, **server_kwargs):
    kwargs = {"mode": "thread", "shards": 2, "log": lambda *_: None}
    kwargs.update(server_kwargs)
    server = ExperimentServer(**kwargs)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.close()


class TestProtocol:
    def test_matrix_expands_to_runner_cache_keys(self):
        jobs = expand_matrix(
            {
                "workloads": ["fp_01"],
                "configs": [{"ucp": True, "stop_threshold": 300}],
                "n_instructions": 5_000,
            }
        )
        assert len(jobs) == 1
        # The served job's key must equal the CLI/runner key for the
        # equivalent config — that is what makes the caches shared.
        from repro.core.configs import config_from_spec

        config = config_from_spec({"ucp": True, "stop_threshold": 300})
        assert jobs[0].key == runner.cache_key("fp_01", 5_000, config)

    def test_same_spec_resolves_to_one_config(self):
        """A spec resolves to one shared config object, so re-asks key
        from the runner's config-repr table; a bad spec is never stored."""
        from repro.core.configs import config_from_spec

        spec = {"ucp": True, "uop_kops": 16}
        first, second = config_from_spec(spec), config_from_spec(dict(spec))
        assert first is second
        assert runner.cache_key("fp_01", 1_000, first) == runner.cache_key(
            "fp_01", 1_000, second
        )
        config_from_spec({"mrc": 1})  # an int spec must not answer for a bool
        for bad in ({"mrc": True}, {"ucp": 1}, {"uop_kops": 16.0}, {"ucp": [True]}):
            for _ in range(2):
                with pytest.raises(ValueError):
                    config_from_spec(bad)

    def test_matrix_is_cross_product_with_dedup(self):
        jobs = expand_matrix(
            {
                "workloads": ["fp_01", "int_01"],
                "configs": [{}, {"ucp": True}, {}],  # duplicate baseline
                "n_instructions": 2_000,
            }
        )
        assert len(jobs) == 4  # 2 workloads x 2 unique configs

    @pytest.mark.parametrize(
        "matrix, code",
        [
            ({"workloads": ["nope"]}, "unknown-workload"),
            ({"workloads": []}, "bad-request"),
            ({"workloads": ["fp_01"], "n_instructions": -5}, "bad-request"),
            ({"workloads": ["fp_01"], "configs": [{"bogus": 1}]}, "bad-request"),
            ({"workloads": ["fp_01"], "extra": True}, "bad-request"),
            ("not-a-dict", "bad-request"),
        ],
    )
    def test_bad_matrices_raise_typed_errors(self, matrix, code):
        with pytest.raises(ServeError) as excinfo:
            expand_matrix(matrix)
        assert excinfo.value.code == code

    def test_run_request_validation(self):
        good = parse_run_request(
            {
                "type": "run",
                "id": "r1",
                "priority": 3,
                "timeout": 2.5,
                "stream": True,
                "matrix": {"workloads": ["fp_01"], "n_instructions": 1_000},
            }
        )
        assert good.priority == 3 and good.timeout == 2.5 and good.stream
        with pytest.raises(ServeError):
            parse_run_request({"type": "run", "id": "", "matrix": {}})
        with pytest.raises(ServeError):
            parse_run_request(
                {"type": "run", "id": "r1", "matrix": {"workloads": ["fp_01"]},
                 "priority": "high"}
            )

    def test_encode_decode_roundtrip(self):
        message = {"type": "run", "id": "x", "matrix": {"workloads": ["fp_01"]}}
        assert decode_line(encode_message(message).strip()) == message

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            ServeError("no-such-code", "boom")
        assert "timeout" in ERROR_CODES


class TestExactlyOnce:
    def test_32_concurrent_clients_one_simulation_per_key(
        self, fresh_cache, run_counter
    ):
        async def body(server):
            async def one_client(i: int) -> RunReply:
                # Overlapping matrices: every client asks for two of the
                # three workloads, so every key is requested many times.
                names = [WORKLOADS[i % 3], WORKLOADS[(i + 1) % 3]]
                async with ServeClient(port=server.port) as client:
                    return await client.run(names, n_instructions=N_INSTRUCTIONS)

            return await asyncio.gather(*[one_client(i) for i in range(32)])

        replies = run_async(_with_server(body))
        assert all(reply.ok and len(reply.results) == 2 for reply in replies)
        # Exactly one execution per unique key, despite 64 requested jobs.
        expected_keys = {
            runner.cache_key(name, N_INSTRUCTIONS, SimConfig())
            for name in WORKLOADS
        }
        assert set(run_counter) == expected_keys
        assert all(count == 1 for count in run_counter.values()), run_counter
        # Every client got bit-identical numbers for the shared keys.
        by_workload: dict[str, set] = {}
        for reply in replies:
            for record in reply.results:
                by_workload.setdefault(record["workload"], set()).add(
                    (record["ipc"], record["cycles"], record["key"])
                )
        assert all(len(seen) == 1 for seen in by_workload.values())

    def test_cache_hits_bypass_the_pool(self, fresh_cache, run_counter):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                first = await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
                status_after_first = await client.status()
                second = await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
                status_after_second = await client.status()
            return first, second, status_after_first, status_after_second

        first, second, after_first, after_second = run_async(_with_server(body))
        assert first.results[0]["cached"] is False
        assert second.results[0]["cached"] is True
        assert second.results[0]["source"] == "memory"
        # The second request never touched a worker pool.
        c1 = after_first["scheduler"]["counters"]
        c2 = after_second["scheduler"]["counters"]
        assert c1["pool_dispatches"] == c2["pool_dispatches"] == 1
        assert c2["jobs_from_memory"] == 1
        assert sum(run_counter.values()) == 1

    def test_served_hit_keys_each_job_once(self, fresh_cache, monkeypatch):
        """A served hit computes each job's cache key once, at expansion:
        quarantine, single-flight, the probe, eviction protection and the
        reply all read that one value."""
        names = [*WORKLOADS, "crypto_01"]
        calls = []
        real = runner.cache_key

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(runner, "cache_key", counting)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                await client.run(names, n_instructions=N_INSTRUCTIONS)
                calls.clear()
                return await client.run(
                    names, configs=[{"ucp": False}], n_instructions=N_INSTRUCTIONS
                )

        reply = run_async(_with_server(body))
        assert [record["cached"] for record in reply.results] == [True] * 4
        assert len(calls) <= len(names), calls

    def test_disk_cache_hit_after_memory_flush(self, fresh_cache, run_counter):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
                runner._memory_cache.clear()  # simulate a server restart
                reply = await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
            return reply

        reply = run_async(_with_server(body))
        assert reply.results[0]["cached"] is True
        assert reply.results[0]["source"] == "disk"
        assert sum(run_counter.values()) == 1


class TestCancellation:
    def test_cancel_mid_run_leaves_pool_schedulable(self, fresh_cache, monkeypatch):
        release = threading.Event()

        def blocking(workload, config, n_instructions, *args):
            if workload == "srv_02":
                release.wait(30.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                victim = asyncio.create_task(
                    client.run(
                        ["srv_02"],
                        n_instructions=N_INSTRUCTIONS,
                        request_id="victim",
                    )
                )
                await _until_running(client)
                await client.cancel("victim")
                with pytest.raises(ServeRequestError) as excinfo:
                    await victim
                assert excinfo.value.code == "cancelled"
                # The shard must still schedule new work afterwards.
                after = await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
                status = await client.status()
            return after, status

        after, status = run_async(_with_server(body, shards=1))
        release.set()  # free the abandoned worker thread
        assert after.ok and after.results[0]["workload"] == "fp_01"
        assert status["scheduler"]["restarts"] >= 1
        assert status["scheduler"]["counters"]["jobs_cancelled"] == 1

    def test_queued_cancellation_never_executes(
        self, fresh_cache, run_counter, monkeypatch
    ):
        release = threading.Event()
        counted = runner.job_entry  # the run_counter wrapper

        def blocking(workload, config, n_instructions, *args):
            if workload == "srv_02":
                release.wait(30.0)
            return counted(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                blocker = asyncio.create_task(
                    client.run(
                        ["srv_02"], n_instructions=N_INSTRUCTIONS,
                        request_id="blocker",
                    )
                )
                await asyncio.sleep(0.05)  # let the blocker reach the shard
                queued = asyncio.create_task(
                    client.run(
                        ["int_01"], n_instructions=N_INSTRUCTIONS,
                        request_id="queued",
                    )
                )
                await asyncio.sleep(0.05)
                await client.cancel("queued")
                with pytest.raises(ServeRequestError) as excinfo:
                    await queued
                assert excinfo.value.code == "cancelled"
                release.set()
                await blocker
            return True

        assert run_async(_with_server(body, shards=1))
        # The cancelled job never reached a worker.
        cancelled_key = runner.cache_key("int_01", N_INSTRUCTIONS, SimConfig())
        assert cancelled_key not in run_counter

    def test_abandoned_job_stores_where_it_was_submitted(
        self, fresh_cache, monkeypatch, tmp_path_factory
    ):
        """A cancelled thread-slot job cannot be killed: it finishes after
        its server closed, when the cache directory may name the next
        server's.  It must store into the directory it was submitted
        under, so the next server starts with an empty cache."""
        release = threading.Event()
        finished = threading.Event()

        def blocking(workload, config, n_instructions, *args):
            release.wait(30.0)
            try:
                return runner.run_job(workload, config, n_instructions, *args)
            finally:
                finished.set()

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def abandon(server):
            async with ServeClient(port=server.port) as client:
                victim = asyncio.create_task(
                    client.run(
                        ["srv_02"], n_instructions=N_INSTRUCTIONS, request_id="victim"
                    )
                )
                await _until_running(client)
                await client.cancel("victim")
                with pytest.raises(ServeRequestError):
                    await victim
            return True

        assert run_async(_with_server(abandon, shards=1))
        next_cache = tmp_path_factory.mktemp("next-cache")
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(next_cache))
        release.set()
        assert finished.wait(60.0)

        async def first_status(server):
            async with ServeClient(port=server.port) as client:
                return await client.status()

        status = run_async(_with_server(first_status))
        assert status["cache"]["disk_entries"] == 0
        assert len(list(fresh_cache.glob("*.pkl"))) == 1


class TestPriority:
    def test_higher_priority_jobs_run_first(self, fresh_cache, monkeypatch):
        release = threading.Event()
        order: list[str] = []
        lock = threading.Lock()

        def recording(workload, config, n_instructions, *args):
            with lock:
                order.append(workload)
            if workload == "srv_02":
                release.wait(30.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", recording)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                blocker = asyncio.create_task(
                    client.run(["srv_02"], n_instructions=N_INSTRUCTIONS)
                )
                await asyncio.sleep(0.05)  # blocker occupies the only shard
                low = asyncio.create_task(
                    client.run(["fp_01"], n_instructions=N_INSTRUCTIONS, priority=0)
                )
                high = asyncio.create_task(
                    client.run(["int_01"], n_instructions=N_INSTRUCTIONS, priority=10)
                )
                await asyncio.sleep(0.05)  # both queued behind the blocker
                release.set()
                await asyncio.gather(blocker, low, high)
            return True

        assert run_async(_with_server(body, shards=1))
        assert order == ["srv_02", "int_01", "fp_01"]


class TestStreaming:
    def test_stream_carries_intervals_and_taxonomy(self, fresh_cache):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                return await client.run(
                    ["fp_01"], n_instructions=N_INSTRUCTIONS, stream=True
                )

        reply = run_async(_with_server(body))
        kinds = [event["event"] for event in reply.events]
        assert "job-started" in kinds
        assert "job-finished" in kinds
        assert "interval" in kinds
        assert "taxonomy" in kinds
        interval = next(e for e in reply.events if e["event"] == "interval")
        assert {"cycle", "ipc", "uop_hit_rate"} <= set(interval)
        taxonomy = next(e for e in reply.events if e["event"] == "taxonomy")
        # The taxonomy partitions the run: buckets sum to total cycles.
        assert sum(taxonomy["cycles"].values()) == reply.results[0]["cycles"]

    def test_unstreamed_requests_get_no_events(self, fresh_cache):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                return await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)

        reply = run_async(_with_server(body))
        assert reply.events == []


def _record_writes(monkeypatch) -> list[bytes]:
    """Log every ``write`` the server makes on a client connection."""
    writes: list[bytes] = []

    class Recording(server_module._Connection):
        def __init__(self, writer):
            super().__init__(writer)
            real = writer.write

            def write(data):
                writes.append(bytes(data))
                real(data)

            writer.write = write

    monkeypatch.setattr(server_module, "_Connection", Recording)
    return writes


async def _read_until_done(reader) -> list[dict]:
    lines = []
    while not lines or lines[-1]["type"] != "done":
        lines.append(decode_line((await reader.readline()).strip()))
    return lines


class TestReplyLoop:
    """A request's lines go out one write per pass of its reply loop:
    ``accepted`` first, then every line ready, ``done`` last."""

    def test_all_hit_request_is_one_write(self, fresh_cache, monkeypatch):
        writes = _record_writes(monkeypatch)
        names = [*WORKLOADS, "crypto_01"]

        async def body(server):
            async with ServeClient(port=server.port) as client:
                warm = await client.run(names, n_instructions=N_INSTRUCTIONS)
                writes.clear()
                await client.run(names, n_instructions=N_INSTRUCTIONS, request_id="hit")
            return warm

        warm = run_async(_with_server(body))
        assert len(writes) == 1
        lines = [decode_line(line) for line in writes[0].splitlines()]
        by_workload = {record["workload"]: record for record in warm.results}
        expected_results = [
            {**by_workload[name], "id": "hit", "cached": True, "source": "memory", "seconds": 0.0}
            for name in names
        ]
        assert lines == [
            {"type": "accepted", "id": "hit", "protocol": 2, "jobs": 4},
            *expected_results,
            {"type": "done", "id": "hit", "jobs": 4, "cached": 4, "simulated": 0, "failed": 0},
        ]

    def test_hit_result_precedes_an_open_miss(self, fresh_cache, monkeypatch):
        release = threading.Event()

        def blocking(workload, config, n_instructions, *args):
            if workload == "srv_02":
                release.wait(30.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                await client.run(["fp_01"], n_instructions=N_INSTRUCTIONS)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            request = {
                "type": "run",
                "id": "mixed",
                "matrix": {"workloads": ["fp_01", "srv_02"], "n_instructions": N_INSTRUCTIONS},
            }
            writer.write(encode_message(request))
            await writer.drain()
            early = [decode_line((await reader.readline()).strip()) for _ in range(2)]
            miss_open = not release.is_set()
            release.set()
            rest = await _read_until_done(reader)
            writer.close()
            await writer.wait_closed()
            return early, miss_open, rest

        try:
            early, miss_open, rest = run_async(_with_server(body, shards=1))
        finally:
            release.set()
        assert miss_open
        assert [line["type"] for line in early] == ["accepted", "result"]
        assert early[1]["workload"] == "fp_01" and early[1]["source"] == "memory"
        assert [(line["type"], line.get("workload")) for line in rest] == [
            ("result", "srv_02"),
            ("done", None),
        ]
        assert rest[-1]["cached"] == 1 and rest[-1]["simulated"] == 1

    def test_stream_events_precede_their_result(self, fresh_cache):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            request = {
                "type": "run",
                "id": "streamed",
                "stream": True,
                "matrix": {"workloads": ["fp_01", "int_01"], "n_instructions": N_INSTRUCTIONS},
            }
            writer.write(encode_message(request))
            await writer.drain()
            lines = await _read_until_done(reader)
            writer.close()
            await writer.wait_closed()
            return lines

        lines = run_async(_with_server(body))
        assert lines[0]["type"] == "accepted" and lines[-1]["type"] == "done"
        results = {line["key"]: i for i, line in enumerate(lines) if line["type"] == "result"}
        assert len(results) == 2
        for key, result_at in results.items():
            events = [
                (i, line["event"])
                for i, line in enumerate(lines)
                if line["type"] == "event" and line["key"] == key
            ]
            kinds = {kind for _i, kind in events}
            assert {"job-started", "job-finished", "interval", "taxonomy"} <= kinds
            assert all(i < result_at for i, _kind in events)


class TestTypedErrors:
    def test_unknown_workload_fails_request(self, fresh_cache):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    await client.run(["no_such_workload"])
                return excinfo.value.code

        assert run_async(_with_server(body)) == "unknown-workload"

    def test_malformed_line_answers_bad_request(self, fresh_cache):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return decode_line(line.strip())

        message = run_async(_with_server(body))
        assert message["type"] == "error" and message["code"] == "bad-request"

    def test_duplicate_request_id_rejected(self, fresh_cache):
        async def body(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            request = {
                "type": "run",
                "id": "dup",
                "matrix": {"workloads": ["fp_01"], "n_instructions": 1_000},
            }
            writer.write(encode_message(request))
            writer.write(encode_message(request))
            await writer.drain()
            codes = []
            while True:
                line = await reader.readline()
                message = decode_line(line.strip())
                if message["type"] == "error":
                    codes.append(message["code"])
                if message["type"] == "done":
                    break
            writer.close()
            await writer.wait_closed()
            return codes

        assert "bad-request" in run_async(_with_server(body))

    def test_cancel_unknown_id_is_bad_request(self, fresh_cache):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                await client._write({"type": "cancel", "id": "ghost"})
                received = await client._control.get()
            return received

        message = run_async(_with_server(body))
        assert message["type"] == "error" and message["code"] == "bad-request"

    def test_overloaded_when_queue_bound_hit(self, fresh_cache, monkeypatch):
        release = threading.Event()

        def blocking(workload, config, n_instructions, *args):
            release.wait(30.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                first = asyncio.create_task(
                    client.run(
                        ["fp_01", "int_01", "srv_02"],
                        n_instructions=N_INSTRUCTIONS,
                        request_id="fill",
                    )
                )
                await asyncio.sleep(0.1)  # one running, two queued >= bound
                with pytest.raises(ServeRequestError) as excinfo:
                    await client.run(["crypto_02"], n_instructions=N_INSTRUCTIONS)
                code = excinfo.value.code
                await client.cancel("fill")
                with pytest.raises(ServeRequestError):
                    await first
            return code

        code = run_async(_with_server(body, shards=1, max_pending=2))
        release.set()
        assert code == "overloaded"


class TestControlPlane:
    def test_ping_and_status(self, fresh_cache):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                pong = await client.ping()
                status = await client.status()
            return pong, status

        pong, status = run_async(_with_server(body))
        assert pong["type"] == "pong" and pong["protocol"] == 2
        assert status["scheduler"]["mode"] == "thread"
        assert status["cache"]["cache_version"] == runner.CACHE_VERSION


class TestLoopStalls:
    """The server's event loop never blocks: the dynamic check for
    blocking I/O or a contended threading lock reached from a handler.
    Every request runs on a debug-mode loop, and any callback slower than
    :data:`STALL_SECONDS` fails the test with asyncio's record naming
    the handle."""

    def test_served_verbs_never_stall_the_loop(self, fresh_cache, monkeypatch):
        release = threading.Event()

        def blocking(workload, config, n_instructions, *args):
            if workload == "srv_02":
                release.wait(30.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)
        names = ["fp_01", "int_01"]

        async def body(server):
            async with ServeClient(port=server.port) as client, ServeClient(
                port=server.port
            ) as other:
                cold = await client.status()
                # Two clients miss on the same keys at once: the second
                # coalesces onto (or hits) the first one's flights.
                miss, shared = await asyncio.gather(
                    client.run(names, n_instructions=N_INSTRUCTIONS),
                    other.run(names, n_instructions=N_INSTRUCTIONS),
                )
                hit = await client.run(names, n_instructions=N_INSTRUCTIONS)
                runner._memory_cache.clear()
                disk = await client.run(names, n_instructions=N_INSTRUCTIONS)
                victim = asyncio.create_task(
                    client.run(
                        ["srv_02"], n_instructions=N_INSTRUCTIONS, request_id="victim"
                    )
                )
                await _until_running(client)
                await client.cancel("victim")
                with pytest.raises(ServeRequestError):
                    await victim
                warm = await client.status()
            return cold, miss, shared, hit, disk, warm

        try:
            (cold, miss, shared, hit, disk, warm), stalls = run_debug(
                _with_server(body)
            )
        finally:
            release.set()  # free the cancelled job's worker thread
        assert stalls == []
        for reply in (miss, shared):
            assert reply.ok and len(reply.results) == 2
        assert [r["source"] for r in hit.results] == ["memory"] * 2
        assert [r["source"] for r in disk.results] == ["disk"] * 2
        assert cold["type"] == "status"
        counters = warm["scheduler"]["counters"]
        # Concurrent handlers keep the scheduler's books exact: one
        # simulation per key, and every request accounted for.
        assert counters["jobs_simulated"] == len(names)
        assert counters["jobs_cancelled"] == 1
        assert counters["jobs_requested"] == 4 * len(names) + 1

    def test_harness_flags_a_blocking_handler(self, fresh_cache, monkeypatch):
        """The check is live: a status handler that blocks the loop for
        longer than the threshold is reported, naming its handler."""
        real = ExperimentServer._status_message

        def blocking(self, cache):
            time.sleep(3 * STALL_SECONDS)
            return real(self, cache)

        monkeypatch.setattr(ExperimentServer, "_status_message", blocking)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                return await client.status()

        status, stalls = run_debug(_with_server(body))
        assert status["type"] == "status"
        assert any("_handle_client" in stall for stall in stalls), stalls


class TestOneJobBody:
    def test_run_cached_engine_and_scheduler_agree(self, fresh_cache, monkeypatch):
        from repro.analysis.parallel import ParallelRunner, Scheduler, SimJob

        job = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        outputs = []
        real = runner.run_job

        def recording(*args):
            output = real(*args)
            outputs.append(output)
            return output

        # In-process bodies are recorded here; the process slot's body
        # runs in its own worker and reports through the flight.
        monkeypatch.setattr(runner, "run_job", recording)

        def on_fresh_cache(name):
            monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(fresh_cache / name))
            runner._memory_cache.clear()

        async def serve():
            scheduler = Scheduler(1, mode="process")
            await scheduler.start()
            try:
                return await scheduler.submit(job).wait()
            finally:
                await scheduler.close()

        on_fresh_cache("run_cached")
        cached = runner.run_cached(job.workload, job.config, job.n_instructions)
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}
        on_fresh_cache("engine")
        engine = ParallelRunner(jobs=2).run([job])[job.key]
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}
        on_fresh_cache("served")
        served = run_async(serve())
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}

        assert cached.to_dict() == engine.to_dict() == served.result.to_dict()
        assert served.source == "simulated" and served.taxonomy is not None
        assert [taxonomy for _result, _seconds, taxonomy, _spans in outputs] == [None, None]

"""The traced run: per-layer metrics and the tracing overhead.

Every traced run reports the same per-layer metrics, measured by the
probes below with spans recorded from this file around calls into each
module's public functions.  :data:`LAYERS` names, for each metric, the
end-to-end metric and workload it should move.  The tracing overhead of
the workload itself is its traced pass minus its untraced pass.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean as mean
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Any, Iterator

import figure
import loops
import servemix
from harness import Outcome, check_digest, load_digests
from plans import (
    FIG_INSTRUCTIONS,
    FIG_NAME,
    FIG_WORKLOADS,
    LOOP_INSTRUCTIONS,
    LOOP_TRACES,
    SERVE_INSTRUCTIONS,
    SERVE_MATRIX_WORKLOADS,
    serve_config,
)
from spans import ComponentProfiler, Tracer

from repro.analysis import parallel, runner
from repro.core import pipeline
from repro.core.kernel import get_columns, get_stream
from repro.core.pipeline import simulate
from repro.experiments.common import Scale
from repro.experiments.registry import run_experiment
from repro.serve.client import ServeClient
from repro.workloads import load_workload

#: Every per-layer metric: (unit, the end-to-end metric it should move).
LAYERS: dict[str, tuple[str, str]] = {
    "workloads.generate_ms": ("ms", "fig_cold/latency_ms, loop_*/setup_s, serve_mix/latency_p95_ms"),
    "kernel.record_ms": ("ms", "fig_cold/latency_ms, loop_*/setup_s, serve_mix/latency_p95_ms"),
    "kernel.columns_ms": ("ms", "fig_cold/latency_ms, loop_*/setup_s, serve_mix/latency_p95_ms"),
    "pipeline.loop_ms": ("ms", "loop_base/sim_kips"),
    "pipeline.host_ns_per_cycle": ("ns", "loop_base/sim_kips"),
    "pipeline.self_ms": ("ms", "loop_base/sim_kips"),
    "frontend.bpu_ms": ("ms", "loop_base/sim_kips"),
    "frontend.fetch_ms": ("ms", "loop_base/sim_kips"),
    "frontend.ftq_ms": ("ms", "loop_base/sim_kips"),
    "caches.uopcache_ms": ("ms", "loop_base/sim_kips"),
    "caches.hierarchy_ms": ("ms", "loop_base/sim_kips"),
    "core.backend_ms": ("ms", "loop_base/sim_kips"),
    "core.ucp_ms": ("ms", "loop_ucp/sim_kips"),
    "model.cycles": ("count", "none: a perf change must not move it"),
    "model.uop_hit_rate": ("%", "none: a perf change must not move it"),
    "model.cond_mpki": ("mpki", "none: a perf change must not move it"),
    "model.ucp_walks": ("count", "none: a perf change must not move it"),
    "model.ucp_entries_prefetched": ("count", "none: a perf change must not move it"),
    "runner.store_ms": ("ms", "fig_cold/latency_ms, serve_mix/latency_ms"),
    "runner.hit_us": ("us", "fig_cold/latency_ms, serve_mix/latency_ms"),
    "runner.entry_bytes": ("bytes", "fig_cold/latency_ms, serve_mix/latency_ms"),
    "parallel.batches": ("count", "fig_cold/latency_ms"),
    "parallel.pool_start_ms": ("ms", "fig_cold/latency_ms"),
    "parallel.worker_busy_pct": ("%", "fig_cold/latency_ms"),
    "cli.import_ms": ("ms", "fig_cold/latency_ms"),
    "serve.hit_rtt_ms": ("ms", "serve_mix/latency_ms"),
    "serve.miss_rtt_ms": ("ms", "serve_mix/latency_p95_ms, serve_mix/sim_kips"),
    "serve.worker_job_ms": ("ms", "serve_mix/latency_p95_ms, serve_mix/sim_kips"),
    "serve.dispatch_ms": ("ms", "serve_mix/latency_p95_ms, serve_mix/sim_kips"),
    "serve.jobs_simulated": ("count", "serve_mix/sim_kips"),
    "serve.jobs_coalesced": ("count", "serve_mix/sim_kips"),
    "serve.jobs_from_memory": ("count", "serve_mix/latency_ms"),
    "serve.restarts": ("count", "serve_mix/latency_p95_ms"),
    "trace.overhead_latency_pct": ("%", "none: traced minus untraced latency_ms"),
    "trace.overhead_kips_pct": ("%", "none: untraced minus traced sim_kips"),
    "trace.component_overhead_pct": ("%", "none: component-wrapped minus plain loop"),
    "trace.spans": ("count", "none: spans recorded"),
}

#: Components of the simulator ``simulate()`` builds: metric -> attribute.
COMPONENTS = {
    "frontend.bpu_ms": "bpu",
    "frontend.fetch_ms": "fetch",
    "frontend.ftq_ms": "ftq",
    "caches.uopcache_ms": "uop_cache",
    "caches.hierarchy_ms": "hierarchy",
    "core.backend_ms": "backend",
    "core.ucp_ms": "ucp",
}

#: Repeats of the cheap probes whose median is reported.
HIT_REPEATS = 200
SERVE_HIT_REPEATS = 50
#: Single-job requests timed as served misses.
SERVE_MISS_WORKLOADS = LOOP_TRACES + ("crypto_01", "web_01", "db_01", "mix_01")
IMPORT_REPEATS = 3


def durations_ms(tracer: Tracer, name: str, trace: int) -> list[float]:
    return [
        (s["end_ns"] - s["start_ns"]) / 1e6
        for s in tracer.spans
        if s["name"] == name and s["trace"] == trace
    ]


@contextmanager
def patched(target: Any, name: str, replacement: Any) -> Iterator[None]:
    original = getattr(target, name)
    setattr(target, name, replacement)
    try:
        yield
    finally:
        setattr(target, name, original)


def spanned(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


def fresh_cache(work: Path, name: str) -> Path:
    cache_dir = work / name
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_SIM_CACHE_DIR"] = str(cache_dir)
    runner.clear_memory_cache()
    return cache_dir


# -- probes ------------------------------------------------------------------


def probe_build(tracer: Tracer, out: Outcome) -> None:
    """Cold trace load, stream recording and columns, per loop trace."""
    with tracer.span("probe.build") as root:
        for name in LOOP_TRACES:
            with tracer.span("workloads.load_workload", trace=name):
                trace = load_workload(name, LOOP_INSTRUCTIONS).trace
            with tracer.span("kernel.get_stream", trace=name):
                get_stream(trace, loops.loop_config(False))
            with tracer.span("kernel.get_columns", trace=name):
                get_columns(trace, loops.loop_config(False))
    out.set("workloads.generate_ms", mean(durations_ms(tracer, "workloads.load_workload", root)), "ms")
    out.set("kernel.record_ms", mean(durations_ms(tracer, "kernel.get_stream", root)), "ms")
    out.set("kernel.columns_ms", mean(durations_ms(tracer, "kernel.get_columns", root)), "ms")


def captured_simulate(trace: Any, config: Any, name: str) -> tuple[Any, Any]:
    """``simulate()`` plus the simulator object it built."""
    built: list[Any] = []
    original = pipeline.Simulator.run

    def run(self: Any) -> Any:
        built.append(self)
        return original(self)

    with patched(pipeline.Simulator, "run", run):
        result = simulate(trace, config, name=name)
    return result, built[0]


def probe_pipeline(tracer: Tracer, out: Outcome, table: dict) -> None:
    """Warm loop time, component self times and the model's counts."""
    plain_ms = {False: 0.0, True: 0.0}
    wrapped_ms = {False: 0.0, True: 0.0}
    self_ms: dict[bool, dict[str, float]] = {False: {}, True: {}}
    cycles = {False: 0, True: 0}
    rates: list[float] = []
    mpkis: list[float] = []
    walks = prefetched = 0
    with tracer.span("probe.pipeline"):
        for ucp in (False, True):
            config = loops.loop_config(ucp)
            for name in LOOP_TRACES:
                trace = load_workload(name, LOOP_INSTRUCTIONS).trace
                start = perf_counter_ns()
                with tracer.span("pipeline.simulate", trace=name, ucp=ucp):
                    result, sim = captured_simulate(trace, config, name)
                plain_ms[ucp] += (perf_counter_ns() - start) / 1e6
                check_digest(out, table, loops.loop_key(name, ucp), result.to_dict())
                cycles[ucp] += result.cycles
                rates.append(result.uop_hit_rate)
                mpkis.append(result.cond_mpki)
                walks += result.window.get("ucp_walks_started", 0)
                prefetched += result.window.get("ucp_entries_prefetched", 0)

                classes = {"pipeline.self_ms": type(sim)}
                for metric, attribute in COMPONENTS.items():
                    component = getattr(sim, attribute)
                    if component is not None:
                        classes[metric] = type(component)
                profiler = ComponentProfiler()
                profiler.patch(classes)
                start = perf_counter_ns()
                try:
                    with tracer.span("pipeline.simulate_profiled", trace=name, ucp=ucp):
                        profiled = simulate(trace, config, name=name)
                finally:
                    profiler.restore()
                wrapped_ms[ucp] += (perf_counter_ns() - start) / 1e6
                check_digest(out, table, loops.loop_key(name, ucp), profiled.to_dict())
                for metric, ns in profiler.self_ns.items():
                    self_ms[ucp][metric] = self_ms[ucp].get(metric, 0.0) + ns / 1e6

    runs = len(LOOP_TRACES)
    out.set("pipeline.loop_ms", plain_ms[False] / runs, "ms")
    out.set("pipeline.host_ns_per_cycle", plain_ms[False] * 1e6 / cycles[False], "ns")
    out.set("pipeline.self_ms", self_ms[False]["pipeline.self_ms"] / runs, "ms")
    for metric in COMPONENTS:
        source = self_ms[True] if metric == "core.ucp_ms" else self_ms[False]
        out.set(metric, source.get(metric, 0.0) / runs, "ms")
    out.set("model.cycles", cycles[False] + cycles[True], "count")
    out.set("model.uop_hit_rate", mean(rates), "%")
    out.set("model.cond_mpki", mean(mpkis), "mpki")
    out.set("model.ucp_walks", walks, "count")
    out.set("model.ucp_entries_prefetched", prefetched, "count")
    plain = plain_ms[False] + plain_ms[True]
    out.set("trace.component_overhead_pct", 100.0 * (sum(wrapped_ms.values()) - plain) / plain, "%")


def probe_runner(tracer: Tracer, out: Outcome, work: Path, table: dict) -> None:
    """A ``run_cached`` miss minus its load and simulate, a memory hit, and
    the size of the stored entry."""
    cache_dir = fresh_cache(work, "runner-cache")
    config = loops.loop_config(False)
    sizes = []
    with tracer.span("probe.runner") as root:
        with (
            patched(runner, "simulate", spanned(tracer, "pipeline.simulate", runner.simulate)),
            patched(runner, "load_workload", spanned(tracer, "workloads.load_workload", runner.load_workload)),
        ):
            for name in LOOP_TRACES:
                with tracer.span("runner.run_cached", trace=name):
                    result = runner.run_cached(name, config, LOOP_INSTRUCTIONS)
                check_digest(out, table, loops.loop_key(name, False), result.to_dict())
                key = runner.cache_key(name, LOOP_INSTRUCTIONS, config)
                sizes.append((cache_dir / f"{key}.pkl").stat().st_size)
        hits = []
        for _ in range(HIT_REPEATS):
            start = perf_counter_ns()
            runner.run_cached(LOOP_TRACES[0], config, LOOP_INSTRUCTIONS)
            hits.append((perf_counter_ns() - start) / 1e3)
    misses = len(durations_ms(tracer, "runner.run_cached", root))
    out.set("runner.store_ms", tracer.self_ms(root)["runner.run_cached"] / misses, "ms")
    out.set("runner.hit_us", median(hits), "us")
    out.set("runner.entry_bytes", mean(sizes), "bytes")


def timed_pool(starts: list[float]) -> type:
    """The engine's pool class, noting for each pool the seconds from its
    creation until its first job started in a worker."""

    class TimedPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            self.created = perf_counter()
            self.seen_first = False
            super().__init__(*args, **kwargs)

        def submit(self, *args: Any, **kwargs: Any) -> Any:
            future = super().submit(*args, **kwargs)
            future.add_done_callback(self.done)
            return future

        def done(self, future: Any) -> None:
            if self.seen_first or future.cancelled() or future.exception():
                return
            self.seen_first = True
            # The job's own seconds, measured in the worker, end here.
            starts.append(perf_counter() - future.result()[1] - self.created)

    return TimedPool


def probe_parallel(tracer: Tracer, out: Outcome, work: Path, table: dict) -> None:
    """One cold figure through the engine at ``--jobs 2``, in-process."""
    fresh_cache(work, "parallel-cache")
    batches: list[Any] = []
    original = parallel.ParallelRunner.run

    def run(self: Any, jobs: Any) -> Any:
        with tracer.span("parallel.run", jobs=len(jobs)):
            results = original(self, jobs)
        batches.append(self.stats)
        return results

    starts: list[float] = []
    scale = Scale("custom", FIG_WORKLOADS, FIG_INSTRUCTIONS)
    with tracer.span("probe.parallel"):
        with patched(parallel.ParallelRunner, "run", run), patched(parallel, "ProcessPoolExecutor", timed_pool(starts)):
            _, rendered = run_experiment(FIG_NAME, scale, jobs=2)
    check_digest(out, table, figure.fig_key(), figure.figure_rows(rendered))
    pooled = [stats for stats in batches if stats.counters["jobs_simulated"]]
    busy = sum(t.seconds for stats in pooled for t in stats.timings)
    wall = sum(stats.wall_seconds for stats in pooled)
    out.set("parallel.batches", len(pooled), "count")
    out.set("parallel.pool_start_ms", 1000.0 * mean(starts), "ms")
    out.set("parallel.worker_busy_pct", 100.0 * busy / (2 * wall), "%")


def probe_cli(tracer: Tracer, out: Outcome, src: Path) -> None:
    with tracer.span("probe.cli"):
        imports = []
        for _ in range(IMPORT_REPEATS):
            with tracer.span("cli.import"):
                imports.append(figure.cold_import(src)[1])
    out.set("cli.import_ms", 1000.0 * median(imports), "ms")


async def serve_probe(tracer: Tracer, out: Outcome, table: dict) -> None:
    """Single-job misses, one coalesced matrix, then all-hit matrices."""
    server = servemix.ExperimentServer(log=servemix.quiet)
    await server.start()
    flights: list[Any] = []
    submit = server.scheduler.submit

    def capture(*args: Any, **kwargs: Any) -> Any:
        flight = submit(*args, **kwargs)
        flights.append(flight)
        return flight

    server.scheduler.submit = capture  # type: ignore[method-assign]
    root = tracer.start("probe.serve")
    misses: list[float] = []
    workers: list[float] = []
    hits: list[float] = []
    try:
        async with ServeClient(port=server.port) as first, ServeClient(port=server.port) as second:

            async def request(client: ServeClient, workloads: list[str], spec: dict, name: str) -> float:
                span = tracer.start(name, root)
                start = perf_counter()
                reply = await client.run(workloads, configs=[spec], n_instructions=SERVE_INSTRUCTIONS)
                elapsed = perf_counter() - start
                tracer.end(span)
                servemix.check_reply(out, table, servemix.Request(tuple(workloads), spec, 0), reply)
                return elapsed

            miss_spec = serve_config(8, False)
            for workload in SERVE_MISS_WORKLOADS:
                flights.clear()
                misses.append(await request(first, [workload], miss_spec, "serve.miss"))
                workers.append((await flights[0].wait()).seconds)
            shared = list(LOOP_TRACES[:SERVE_MATRIX_WORKLOADS])
            shared_spec = serve_config(16, True)
            await asyncio.gather(
                request(first, shared, shared_spec, "serve.coalesced"),
                request(second, shared, shared_spec, "serve.coalesced"),
            )
            for _ in range(SERVE_HIT_REPEATS):
                hits.append(await request(first, shared, shared_spec, "serve.hit"))
        stats = server.scheduler.stats()
    finally:
        tracer.end(root)
        await server.close()
        servemix.reap_children()
    counters = stats["counters"]
    out.set("serve.hit_rtt_ms", 1000.0 * median(hits), "ms")
    out.set("serve.miss_rtt_ms", 1000.0 * median(misses), "ms")
    out.set("serve.worker_job_ms", 1000.0 * median(workers), "ms")
    out.set("serve.dispatch_ms", 1000.0 * median([m - w for m, w in zip(misses, workers)]), "ms")
    out.set("serve.jobs_simulated", counters.get("jobs_simulated", 0), "count")
    out.set("serve.jobs_coalesced", counters.get("jobs_coalesced", 0), "count")
    out.set("serve.jobs_from_memory", counters.get("jobs_from_memory", 0), "count")
    out.set("serve.restarts", stats["restarts"], "count")


def run(src: Path, work: Path, untraced: Outcome, traced: Outcome, tracer: Tracer) -> Outcome:
    """Probe every layer; the result also carries both passes' accounting."""
    digests = load_digests()
    out = Outcome()
    probe_build(tracer, out)
    probe_pipeline(tracer, out, digests["loop"])
    probe_runner(tracer, out, work, digests["loop"])
    probe_parallel(tracer, out, work, digests["fig"])
    probe_cli(tracer, out, src)
    fresh_cache(work, "serve-cache")
    asyncio.run(serve_probe(tracer, out, digests["serve"]))

    latency = untraced.metrics["latency_ms"][0]
    kips = untraced.metrics["sim_kips"][0]
    out.set("trace.overhead_latency_pct", 100.0 * (traced.metrics["latency_ms"][0] - latency) / latency, "%")
    out.set("trace.overhead_kips_pct", 100.0 * (kips - traced.metrics["sim_kips"][0]) / kips, "%")
    out.set("trace.spans", len(tracer.spans), "count")

    for label, other in (("untraced", untraced), ("traced", traced)):
        out.attempted += other.attempted
        out.failed += other.failed
        out.problems.extend(other.problems)
        out.notes.extend(f"{label} pass: {note}" for note in other.notes)
    missing = set(LAYERS) - set(out.metrics)
    if missing:
        raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
    for name, (_unit, target) in LAYERS.items():
        print(f"layer {name:32s} -> {target}")
    return out

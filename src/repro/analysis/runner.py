"""The one job body: produce a result the cache missed, and store it.

Every path to a result probes :mod:`repro.analysis.result_cache` first
and runs :func:`run_job` on a miss: load (only an entry another process
stored since the probe), or load the workload, simulate and store.
``run_cached`` calls it directly for one (workload, config) pair;
``run_suite`` routes batches through the experiment engine in
:mod:`repro.analysis.parallel`, which runs it through the
:func:`job_entry` seam that tests and fault injectors patch.

``simulate`` and ``load_workload`` stay module globals here, and
``cache_key`` and ``clear_memory_cache`` are re-exported from the cache
module, for the benchmark harness that patches or calls them;
``CACHE_VERSION`` is re-exported beside ``cache_key`` for the test that
pins both.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

from repro.analysis import result_cache
from repro.analysis.result_cache import CACHE_VERSION, cache_key, clear_memory_cache
from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult, Simulator, simulate
from repro.observe import telemetry
from repro.observe.telemetry import SpanContext, SpanSink
from repro.workloads.suite import load_workload

__all__ = [
    "CACHE_VERSION",
    "JobOutput",
    "cache_key",
    "clear_memory_cache",
    "job_entry",
    "load_workload",
    "record_spans",
    "run_cached",
    "run_job",
    "run_suite",
    "simulate",
]

#: What :func:`run_job` returns: ``(result, seconds, taxonomy, spans)``.
JobOutput = tuple[SimResult, float, dict[str, Any] | None, list[dict[str, Any]]]


def run_job(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    observe: bool = False,
    trace_wire: dict[str, Any] | None = None,
    key: str | None = None,
    cache_dir: Path | None = None,
) -> JobOutput:
    """The job body: produce one result the caches missed, and store it.

    The caller has already probed (and counted) the caches, so an entry
    is opened only if another process stored it since.  Otherwise the
    workload is loaded and simulated — with the observer armed only when
    ``observe`` is set, for the stall taxonomy a served stream carries —
    and the result is stored atomically, so work done in a pool worker
    survives a parent that dies before merging it.

    Returns ``(result, seconds, taxonomy, spans)``: the job's wall
    seconds, the taxonomy (None unless observed and simulated), and, with
    ``REPRO_SIM_TELEMETRY`` on, the ``worker.job`` / ``runner.simulate``
    spans as plain dicts under ``trace_wire`` (a
    :meth:`SpanContext.as_wire` dict; None starts a new trace).  The spans
    are built in a job-local sink, so no telemetry object crosses a
    pickle boundary and a thread-mode slot cannot record them twice; the
    caller records them with :func:`record_spans`.  ``key`` is the job's
    :func:`cache_key` when the caller holds it (computed here otherwise).

    ``cache_dir`` is the cache directory the engine bound when it handed
    the job to a worker (resolved here otherwise), so a job that outlives
    the server which submitted it (an abandoned thread-slot job) stores
    there, not into whatever ``REPRO_SIM_CACHE_DIR`` names by the time it
    finishes.
    """
    directory = cache_dir if cache_dir is not None else result_cache._cache_dir()
    start = time.perf_counter()  # lint-ok: SIM002 job timing telemetry, never touches results
    sink = SpanSink() if telemetry.telemetry_enabled() else None
    job_span = (
        sink.start_span(
            "worker.job",
            parent=SpanContext.from_wire(trace_wire),
            attrs={"workload": workload, "pid": os.getpid()},
        )
        if sink is not None
        else None
    )
    if key is None:
        key = result_cache.cache_key(workload, n_instructions, config)
    result = result_cache._load_disk(key, directory)
    taxonomy: dict[str, Any] | None = None
    source = "disk"
    if result is None:
        source = "simulated"
        sim_span = (
            sink.start_span("runner.simulate", parent=job_span.context)
            if sink is not None and job_span is not None
            else None
        )
        spec = load_workload(workload, n_instructions)
        if observe:
            sim = Simulator(spec.trace, config, name=workload, observe=True)
            result = sim.run()
            if sim.observer is not None:
                taxonomy = sim.observer.taxonomy.as_dict()
        else:
            result = simulate(spec.trace, config, name=workload)
        result_cache._store_disk(key, result, directory)
        if sink is not None and sim_span is not None:
            sink.finish(sim_span, instructions=result.instructions)
    spans: list[dict[str, Any]] = []
    if sink is not None and job_span is not None:
        sink.finish(job_span, source=source)
        spans = [span.to_dict() for span in sink.drain()]
    return result, time.perf_counter() - start, taxonomy, spans  # lint-ok: SIM002 timing telemetry


def job_entry(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    observe: bool = False,
    trace_wire: dict[str, Any] | None = None,
    key: str | None = None,
    cache_dir: Path | None = None,
) -> JobOutput:
    """The worker seam: what ``ParallelRunner`` and the scheduler's slots
    run for each job, in process or in a pool worker.

    The engine looks it up on this module when it dispatches, and a
    process pool pickles it by name, so a test double or fault injector
    patched over it reaches serial runs, thread slots and pool workers
    alike (a double sent to a process pool must be a module-level
    function).  Doubles call :func:`run_job` for the real work, passing
    on the trailing arguments.
    """
    return run_job(workload, config, n_instructions, observe, trace_wire, key, cache_dir)


def record_spans(spans: list[dict[str, Any]]) -> None:
    """Re-record span dicts a job returned into this process's sink."""
    sink = telemetry.maybe_spans()
    if sink is not None:
        for span in spans:
            sink.record(span)


def run_cached(workload: str, config: SimConfig, n_instructions: int = 40_000) -> SimResult:
    """Simulate ``workload`` under ``config``, reusing cached results.

    Each call counts one cache probe.  Callers that miss the same key at
    once each run the job body, but all of them return the one object
    published in memory.
    """
    key = result_cache.cache_key(workload, n_instructions, config)
    result = result_cache.probe(key)[0]
    if result is not None:
        return result
    result, _seconds, _taxonomy, spans = run_job(
        workload, config, n_instructions, False, None, key
    )
    record_spans(spans)
    # A caller that probed after run_job's disk store has promoted that
    # entry already; every caller gets the one published object.
    return result_cache._memory_cache.setdefault(key, result)


def run_suite(
    workloads: list[str],
    config: SimConfig,
    n_instructions: int = 40_000,
    *,
    jobs: int | None = None,
    progress=None,
) -> dict[str, SimResult]:
    """Run several workloads under one config, in parallel when possible.

    ``jobs`` overrides the worker count (default: see
    :class:`repro.analysis.parallel.ParallelRunner`); inside
    :func:`repro.analysis.parallel.pool_scope` the batch runs on the
    scope's worker slots.  ``progress`` is an optional
    ``(done, total, job)`` callback.  Results are bit-identical to calling
    :func:`run_cached` serially for each workload.
    """
    from repro.analysis.parallel import ParallelRunner, SimJob

    runner = ParallelRunner(jobs=jobs, progress=progress)
    sim_jobs = [SimJob(name, config, n_instructions) for name in workloads]
    by_key = runner.run(sim_jobs)
    return {job.workload: by_key[job.key] for job in sim_jobs}

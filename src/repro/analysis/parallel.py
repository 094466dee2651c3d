"""The experiment engine's synchronous façade.

Every figure reproduction fans out dozens of independent ``(workload,
config, n_instructions)`` simulations.  :class:`ParallelRunner` is what the
CLI, the experiment drivers and :func:`repro.analysis.runner.run_suite`
hand them to: it dedups a batch, probes the caches, submits the pending
jobs to a :class:`repro.analysis.scheduler.Scheduler` (the engine's core,
which the experiment server runs too: worker slots fed by one queue, crash
retry then quarantine, a per-job timeout that restarts only its slot),
runs the event loop until they resolve and raises
:class:`ParallelExecutionError` with one typed failure per job; the
successes are cached either way.  ``jobs=1`` (or a single pending job, or
a platform without usable ``multiprocessing`` start methods) runs the jobs
in process instead — no pool, no pickling, identical results.

A bare :meth:`ParallelRunner.run` starts slots for its batch and joins
them before returning; inside :func:`pool_scope` (which
:func:`repro.experiments.registry.run_experiment` opens around every
driver) all batches share one scheduler, so its workers keep their
generated traces and recorded branch streams, and its quarantine, from
batch to batch.  Worker processes are built through this module's
``ProcessPoolExecutor`` name, looked up when a slot starts its worker, so
a wrapper patched over it sees every worker start.

Worker count resolution order:

1. explicit ``jobs=`` argument (``repro serve --shards``, ``--jobs``);
2. the ``jobs`` of the enclosing :func:`pool_scope`;
3. the ``REPRO_SIM_JOBS`` environment variable;
4. ``os.cpu_count()``.

Example
-------
>>> from repro.analysis.parallel import ParallelRunner, SimJob
>>> runner = ParallelRunner(jobs=4)
>>> results = runner.run([SimJob("fp_01", SimConfig(), 20_000)])
>>> runner.stats.counters["jobs_simulated"]
1
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.analysis import result_cache
from repro.analysis.scheduler import (
    ERROR_CODES,
    Flight,
    FlightResult,
    JobError,
    Scheduler,
    SimJob,
    WorkerSlot,
    _count_job,
    _pool_context,
    resolve_job_count,
    resolve_job_timeout,
    run_inline,
)
from repro.common.stats import StatBlock, TimingSummary
from repro.core.pipeline import SimResult

__all__ = [
    "ERROR_CODES",
    "EngineStats",
    "Flight",
    "FlightResult",
    "JobError",
    "ParallelExecutionError",
    "ParallelRunner",
    "ProcessPoolExecutor",
    "Scheduler",
    "SimJob",
    "WorkerSlot",
    "pool_scope",
    "resolve_job_count",
    "resolve_job_timeout",
]


@dataclass
class JobTiming:
    """Wall-clock timing of one executed (non-cache-hit) job."""

    job: SimJob
    seconds: float


class EngineStats:
    """Per-runner counters plus job timing / throughput accounting.

    ``counters`` is a :class:`repro.common.stats.StatBlock` with:

    * ``jobs_requested`` — jobs passed to :meth:`ParallelRunner.run`;
    * ``jobs_deduped`` — duplicates folded by single-flight keying;
    * ``jobs_from_memory`` / ``jobs_from_disk`` — cache hits;
    * ``jobs_simulated`` — jobs actually executed this run;
    * ``jobs_failed`` — jobs that failed, whatever the code;
    * ``jobs_timed_out`` — jobs abandoned past the per-job timeout
      (counted in ``jobs_failed`` too).
    """

    def __init__(self) -> None:
        self.counters = StatBlock("parallel_engine")
        self.timings: list[JobTiming] = []
        self.wall_seconds: float = 0.0

    def timing_summary(self) -> TimingSummary:
        return TimingSummary.from_samples(t.seconds for t in self.timings)

    @property
    def throughput(self) -> float:
        """Simulated jobs per wall-clock second (0.0 when nothing ran)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.counters["jobs_simulated"] / self.wall_seconds

    def render(self) -> str:
        summary = self.timing_summary()
        c = self.counters
        return (
            f"jobs: {c['jobs_requested']} requested, "
            f"{c['jobs_deduped']} deduped, "
            f"{c['jobs_from_memory'] + c['jobs_from_disk']} cached, "
            f"{c['jobs_simulated']} simulated, {c['jobs_failed']} failed | "
            f"wall {self.wall_seconds:.2f}s, "
            f"{self.throughput:.2f} jobs/s, "
            f"per-job mean {summary.mean:.2f}s p95 {summary.p95:.2f}s"
        )


class ParallelExecutionError(RuntimeError):
    """One or more jobs failed; successful results are already cached.

    ``failures`` holds one ``(job, JobError)`` per failed job.
    """

    def __init__(self, failures: list[tuple[SimJob, JobError]]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{job.describe()}: [{error.code}] {error}" for job, error in failures
        )
        super().__init__(f"{len(failures)} simulation job(s) failed: {detail}")


# -- the synchronous façade -------------------------------------------------


class _Scope:
    """What :func:`pool_scope` shares: its worker count and, from the first
    pooled batch on, its scheduler."""

    def __init__(self, jobs: int | None) -> None:
        self.jobs = jobs
        self.scheduler: Scheduler | None = None


_scope: ContextVar[_Scope | None] = ContextVar("repro_pool_scope", default=None)


@contextmanager
def pool_scope(jobs: int | None = None) -> Iterator[None]:
    """Keep one scheduler's worker slots alive across every
    :class:`ParallelRunner` batch run inside the block, and join them on
    exit.

    ``jobs`` is the worker count for runners built without an explicit
    ``jobs=``; the scheduler takes the slot count of the first pooled
    batch.  Workers are forked when a slot runs its first job, so they see
    the environment as it was then.  A key quarantined by one batch is
    refused fast by the later ones.
    """
    scope = _Scope(jobs)
    token = _scope.set(scope)
    try:
        yield
    finally:
        _scope.reset(token)
        if scope.scheduler is not None:
            scope.scheduler.shutdown()


_Settle = Callable[[SimJob, FlightResult | JobError], None]


class ParallelRunner:
    """Resolves deduplicated simulation jobs through the engine.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` takes the enclosing :func:`pool_scope`'s
        ``jobs``, then resolves via :func:`resolve_job_count`.
    progress:
        Optional callback ``progress(done, total, job)`` invoked in the
        parent process as each job resolves (from cache or from a worker).
    job_timeout:
        Per-job wall-clock budget in seconds, measured from dispatch to a
        slot; ``None`` resolves via :func:`resolve_job_timeout`
        (``REPRO_SIM_JOB_TIMEOUT``, default: no timeout).  A job past its
        budget fails with code ``timeout`` and only its slot is restarted
        while the remaining jobs finish.  The in-process path cannot
        interrupt a simulation and ignores the timeout.

    Outside :func:`pool_scope` each pooled :meth:`run` starts and joins
    its own slots; inside one it uses the scope's scheduler.
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress: Callable[[int, int, SimJob], None] | None = None,
        job_timeout: float | None = None,
    ) -> None:
        scope = _scope.get()
        if jobs is None and scope is not None:
            jobs = scope.jobs
        self.jobs = resolve_job_count(jobs)
        self.progress = progress
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.stats = EngineStats()

    def run(self, jobs: list[SimJob]) -> dict[str, SimResult]:
        """Resolve every job, returning ``{cache_key: SimResult}``.

        Cache hits are returned directly; the remaining unique jobs are
        simulated (in worker slots when ``self.jobs > 1``) and merged into
        the in-memory cache (the job body stores them on disk).  If any
        job fails, the successes are still cached and a
        :class:`ParallelExecutionError` is raised.
        """
        start = time.perf_counter()  # lint-ok: SIM002 wall-clock telemetry for run reports
        counters = self.stats.counters
        results: dict[str, SimResult] = {}
        failures: list[tuple[SimJob, JobError]] = []
        # Single-flight dedup: two figures requesting the same key in one
        # batch (or the same key twice in one suite) simulate once.
        unique = {job.key: job for job in jobs}

        def resolve(job: SimJob, result: SimResult) -> None:
            results[job.key] = result
            if self.progress is not None:
                self.progress(len(results), len(unique), job)

        def settle(job: SimJob, outcome: FlightResult | JobError) -> None:
            if isinstance(outcome, JobError):
                counters.add("jobs_failed")
                if outcome.code == "timeout":
                    counters.add("jobs_timed_out")
                failures.append((job, outcome))
            else:
                counters.add("jobs_simulated")
                self.stats.timings.append(JobTiming(job, outcome.seconds))
                resolve(job, outcome.result)

        try:
            counters.add("jobs_requested", len(jobs))
            _count_job("requested", len(jobs))
            if len(jobs) > len(unique):
                counters.add("jobs_deduped", len(jobs) - len(unique))
                _count_job("coalesced", len(jobs) - len(unique))
            pending: list[SimJob] = []
            for key, job in unique.items():
                cached, tier = result_cache.probe(key)
                if cached is None:
                    pending.append(job)
                else:
                    counters.add(f"jobs_from_{tier}")
                    _count_job(f"from_{tier}")
                    resolve(job, cached)
            if min(self.jobs, len(pending)) > 1 and _pool_context() is not None:
                self._run_on_slots(pending, settle)
            else:
                self._run_serial(pending, settle)
        finally:
            self.stats.wall_seconds += time.perf_counter() - start  # lint-ok: SIM002 timing telemetry

        if failures:
            raise ParallelExecutionError(failures)
        return results

    def _run_serial(self, pending: list[SimJob], settle: _Settle) -> None:
        """In-process path: identical semantics, no pool overhead."""
        scope = _scope.get()
        scheduler = None if scope is None else scope.scheduler
        for job in pending:
            try:
                if scheduler is not None:
                    scheduler.admit(job)
                outcome = run_inline(job)
            except JobError as error:
                settle(job, error)
            else:
                settle(job, outcome)

    def _run_on_slots(self, pending: list[SimJob], settle: _Settle) -> None:
        scope = _scope.get()
        scheduler = None if scope is None else scope.scheduler
        if scheduler is None:
            scheduler = Scheduler(self.jobs)
            if scope is not None:
                scope.scheduler = scheduler
        try:
            asyncio.run(self._drain(scheduler, pending, settle))
        finally:
            if scope is None:
                scheduler.shutdown()

    async def _drain(
        self, scheduler: Scheduler, pending: list[SimJob], settle: _Settle
    ) -> None:
        """Submit every pending job and settle each as it resolves."""
        await scheduler.start()
        try:
            waiting: dict[asyncio.Future[FlightResult], SimJob] = {}
            for job in pending:
                try:
                    flight = scheduler.submit(
                        job, timeout=self.job_timeout, probed=True
                    )
                except JobError as error:
                    settle(job, error)
                else:
                    waiting[flight.future] = job
            while waiting:
                done, _ = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED
                )
                for future in sorted(done, key=lambda f: waiting[f].key):
                    job = waiting.pop(future)
                    try:
                        outcome = future.result()
                    except JobError as error:
                        settle(job, error)
                    else:
                        settle(job, outcome)
        finally:
            await scheduler.stop()

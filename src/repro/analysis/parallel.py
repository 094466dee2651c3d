"""Parallel experiment execution engine.

Every figure reproduction fans out dozens of independent
``(workload, config, n_instructions)`` simulations.  :class:`ParallelRunner`
schedules the deduplicated set of *pending* jobs (those not already in the
in-memory or on-disk cache) across a :class:`concurrent.futures.
ProcessPoolExecutor` and merges worker results back into both cache
layers, so the parallel path is bit-identical to running
:func:`repro.analysis.runner.run_cached` serially — same seeds, same
stats — just faster on multi-core machines.  Cache lookups go through
:func:`repro.analysis.runner.probe` and every job, in process or in a
worker, runs :func:`repro.analysis.runner.job_entry`, the seam the
experiment server's shards run too.

Worker count resolution order:

1. explicit ``jobs=`` argument;
2. the ``jobs`` of the enclosing :func:`pool_scope`;
3. the ``REPRO_SIM_JOBS`` environment variable;
4. ``os.cpu_count()``.

``jobs=1`` (or a single pending job, or a platform without usable
``multiprocessing`` start methods) falls back to a serial in-process loop
— no pool, no pickling, identical results.

Pool lifetime: a bare :meth:`ParallelRunner.run` starts a pool for its
batch and shuts it down before returning.  Inside :func:`pool_scope`
(which :func:`repro.experiments.registry.run_experiment` opens around
every driver) all batches borrow one pool, so workers keep their
generated traces and recorded branch streams from batch to batch.

Example
-------
>>> from repro.analysis.parallel import ParallelRunner, SimJob
>>> runner = ParallelRunner(jobs=4)
>>> results = runner.run([SimJob("fp_01", SimConfig(), 20_000)])
>>> runner.stats.counters["jobs_simulated"]
1
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.analysis import runner as _runner
from repro.common.stats import StatBlock, TimingSummary
from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult
from repro.observe import telemetry

__all__ = [
    "SimJob",
    "EngineStats",
    "JobTimeoutError",
    "ParallelExecutionError",
    "ParallelRunner",
    "pool_scope",
    "resolve_job_count",
    "resolve_job_timeout",
    "run_jobs",
]


#: EngineStats counters mirrored into the telemetry registry per run
#: (delta-based, so repeated runs accumulate process-lifetime totals).
_MIRRORED_COUNTERS = (
    "jobs_requested",
    "jobs_deduped",
    "jobs_from_memory",
    "jobs_from_disk",
    "jobs_simulated",
    "jobs_failed",
    "jobs_timed_out",
)


@dataclass(frozen=True)
class SimJob:
    """One unit of work: simulate ``workload`` under ``config``."""

    workload: str
    config: SimConfig
    n_instructions: int = 40_000

    @property
    def key(self) -> str:
        return _runner.cache_key(self.workload, self.n_instructions, self.config)

    def describe(self) -> str:
        return f"{self.workload}@{self.n_instructions}"


@dataclass
class JobTiming:
    """Wall-clock timing of one executed (non-cache-hit) job."""

    job: SimJob
    seconds: float


class EngineStats:
    """Per-run counters plus job timing / throughput accounting.

    ``counters`` is a :class:`repro.common.stats.StatBlock` with:

    * ``jobs_requested`` — jobs passed to :meth:`ParallelRunner.run`;
    * ``jobs_deduped`` — duplicates folded by single-flight keying;
    * ``jobs_from_memory`` / ``jobs_from_disk`` — cache hits;
    * ``jobs_simulated`` — jobs actually executed this run;
    * ``jobs_failed`` — jobs whose worker raised;
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
    """One or more workers failed; successful results are already cached."""

    def __init__(self, failures: list[tuple[SimJob, BaseException]]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{job.describe()}: {type(error).__name__}: {error}"
            for job, error in failures
        )
        super().__init__(f"{len(failures)} simulation job(s) failed: {detail}")


class JobTimeoutError(RuntimeError):
    """A pool job ran past its per-job timeout and was abandoned.

    The worker executing it may be wedged (that is what the timeout is
    for); the runner kills the pool's processes after draining the other
    jobs, so a poisoned config cannot leak a hung worker past the run.
    """

    def __init__(self, job: SimJob, timeout: float) -> None:
        self.job = job
        self.timeout = timeout
        super().__init__(
            f"{job.describe()} exceeded the {timeout:.1f}s per-job timeout"
        )


def resolve_job_count(jobs: int | None = None) -> int:
    """Worker count: explicit arg > the enclosing :func:`pool_scope`'s
    ``jobs`` > ``REPRO_SIM_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        scope = _scope.get()
        jobs = None if scope is None else scope.jobs
    if jobs is None:
        env = os.environ.get("REPRO_SIM_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def resolve_job_timeout(timeout: float | None = None) -> float | None:
    """Per-job timeout in seconds: explicit arg > ``REPRO_SIM_JOB_TIMEOUT``.

    ``None`` (the default) and non-positive or unparsable values mean "no
    timeout" — the engine's historical behaviour.
    """
    if timeout is None:
        env = os.environ.get("REPRO_SIM_JOB_TIMEOUT", "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = None
    if timeout is None or timeout <= 0:
        return None
    return timeout


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """Pick a start method, preferring fork (cheap, inherits warm state)."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn", "forkserver"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _new_pool(
    workers: int, context: multiprocessing.context.BaseContext
) -> ProcessPoolExecutor:
    # The class is looked up at call time so callers can wrap it.
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_worker_init,
        initargs=(os.getpid(),),
    )


def _shutdown(pool: Executor, poisoned: bool) -> None:
    """Join ``pool``, or kill its processes when a worker may be wedged."""
    if not poisoned:
        pool.shutdown(wait=True)
        return
    # Do not join a wedged worker.  Snapshot the process table first —
    # the executor's management thread nulls it out during teardown.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


class _PoolScope:
    """The one worker pool that every pooled batch in a scope borrows.

    The pool is created by the first pooled batch at that batch's worker
    count and replaced only when a later batch could use more workers,
    when a timeout poisoned it, or when a worker crash broke it.
    """

    def __init__(self, jobs: int | None) -> None:
        self.jobs = jobs
        self.pool: ProcessPoolExecutor | None = None
        self.workers = 0

    def borrow(
        self, workers: int, context: multiprocessing.context.BaseContext
    ) -> ProcessPoolExecutor:
        if self.pool is not None and (
            workers > self.workers or getattr(self.pool, "_broken", False)
        ):
            self.discard(poisoned=False)
        if self.pool is None:
            self.pool = _new_pool(workers, context)
            self.workers = workers
        return self.pool

    def discard(self, poisoned: bool) -> None:
        if self.pool is not None:
            _shutdown(self.pool, poisoned)
        self.pool = None
        self.workers = 0


_scope: ContextVar[_PoolScope | None] = ContextVar("repro_pool_scope", default=None)


@contextmanager
def pool_scope(jobs: int | None = None) -> Iterator[None]:
    """Share one worker pool among every :class:`ParallelRunner` batch run
    inside the block, and shut it down on exit.

    ``jobs`` is the worker count for runners built without an explicit
    ``jobs=``.  Workers are forked when the first pooled batch starts, so
    they see the environment as it was then.
    """
    scope = _PoolScope(jobs)
    token = _scope.set(scope)
    try:
        yield
    finally:
        _scope.reset(token)
        scope.discard(poisoned=False)


def _worker_init(parent_pid: int) -> None:
    """Worker-process initializer: exit if the parent dies.

    A SIGKILLed parent cannot shut the pool down, and every worker holds
    the call-queue pipe open, so idle workers would otherwise block on it
    forever.  A watchdog thread notices the re-parenting and exits; the
    atomic cache writes make dying mid-job harmless.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


@dataclass
class _RunState:
    """Mutable bookkeeping for one :meth:`ParallelRunner.run` call."""

    total: int
    done: int = 0
    results: dict[str, SimResult] = field(default_factory=dict)
    failures: list[tuple[SimJob, BaseException]] = field(default_factory=list)


class ParallelRunner:
    """Schedules deduplicated simulation jobs across worker processes.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` resolves via :func:`resolve_job_count`.
    progress:
        Optional callback ``progress(done, total, job)`` invoked in the
        parent process as each job resolves (from cache or from a worker).
    job_timeout:
        Per-job wall-clock budget in seconds, measured from dispatch to
        the pool; ``None`` resolves via :func:`resolve_job_timeout`
        (``REPRO_SIM_JOB_TIMEOUT``, default: no timeout).  A job past its
        budget fails with :class:`JobTimeoutError` while the remaining
        jobs finish; the pool's processes are then killed rather than
        joined, so a wedged worker cannot hang the run.  The serial
        (``jobs=1``) fallback cannot interrupt an in-process simulation
        and ignores the timeout.

    Outside :func:`pool_scope` each pooled :meth:`run` starts and shuts
    down its own pool; inside one it borrows the scope's pool.
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress=None,
        job_timeout: float | None = None,
    ) -> None:
        self.jobs = resolve_job_count(jobs)
        self.progress = progress
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.stats = EngineStats()

    # -- public API --------------------------------------------------------

    def run(self, jobs: list[SimJob]) -> dict[str, SimResult]:
        """Resolve every job, returning ``{cache_key: SimResult}``.

        Cache hits are returned directly; the remaining unique jobs are
        simulated (in parallel when ``self.jobs > 1``) and merged into the
        in-memory and on-disk caches.  If any worker fails, the successes
        are still cached and a :class:`ParallelExecutionError` is raised.
        """
        start = time.perf_counter()  # lint-ok: SIM002 wall-clock telemetry for run reports
        before = {name: self.stats.counters[name] for name in _MIRRORED_COUNTERS}
        timings_before = len(self.stats.timings)
        try:
            self.stats.counters.add("jobs_requested", len(jobs))

            # Single-flight dedup: two figures requesting the same key in one
            # batch (or the same key twice in one suite) simulate once.
            unique: dict[str, SimJob] = {}
            for job in jobs:
                if job.key in unique:
                    self.stats.counters.add("jobs_deduped")
                else:
                    unique[job.key] = job

            state = _RunState(total=len(unique))
            pending: list[SimJob] = []
            for key, job in unique.items():
                cached, tier = _runner.probe(key)
                if cached is None:
                    pending.append(job)
                else:
                    self.stats.counters.add(f"jobs_from_{tier}")
                    self._resolve(state, job, cached)

            if pending:
                context = _pool_context()
                if self._effective_workers(len(pending)) == 1 or context is None:
                    self._run_serial(state, pending)
                else:
                    self._run_pool(state, pending, context)
        finally:
            self.stats.wall_seconds += time.perf_counter() - start  # lint-ok: SIM002 timing telemetry
            self._mirror_telemetry(before, timings_before)

        if state.failures:
            raise ParallelExecutionError(state.failures)
        return state.results

    def _mirror_telemetry(
        self, before: dict[str, int], timings_before: int
    ) -> None:
        """Mirror this run's counter deltas into the telemetry registry.

        The per-run :class:`EngineStats` StatBlock stays authoritative
        (and deterministic); the registry gets process-lifetime totals so
        ``repro serve --metrics-port`` / ``repro top`` can see the engine
        without reaching into runner objects.
        """
        tel = telemetry.maybe()
        if tel is None:
            return
        family = tel.counter(
            "repro_engine_jobs_total",
            "ParallelRunner job outcomes (process lifetime).",
            labels=("outcome",),
        )
        for name in _MIRRORED_COUNTERS:
            delta = self.stats.counters[name] - before[name]
            if delta > 0:
                family.inc(delta, outcome=name.removeprefix("jobs_"))
        seconds = tel.histogram(
            "repro_engine_job_seconds",
            "Wall seconds per executed (non-cache-hit) engine job.",
        )
        for timing in self.stats.timings[timings_before:]:
            seconds.observe(timing.seconds)

    # -- internals ---------------------------------------------------------

    def _effective_workers(self, n_pending: int) -> int:
        return min(self.jobs, n_pending)

    def _resolve(self, state: _RunState, job: SimJob, result: SimResult) -> None:
        state.results[job.key] = result
        state.done += 1
        if self.progress is not None:
            self.progress(state.done, state.total, job)

    def _merge(self, state: _RunState, job: SimJob, output: _runner.JobOutput) -> None:
        """Account for one finished job and merge its result into memory
        (the job body has already stored it on disk)."""
        result, seconds, _taxonomy, spans = output
        self.stats.counters.add("jobs_simulated")
        self.stats.timings.append(JobTiming(job, seconds))
        _runner.record_spans(spans)
        result = _runner._memory_cache.setdefault(job.key, result)
        self._resolve(state, job, result)

    def _fail(self, state: _RunState, job: SimJob, error: BaseException) -> None:
        self.stats.counters.add("jobs_failed")
        state.failures.append((job, error))

    def _run_serial(self, state: _RunState, pending: list[SimJob]) -> None:
        """In-process fallback: identical semantics, no pool overhead."""
        for job in pending:
            try:
                output = _runner.job_entry(job.workload, job.config, job.n_instructions)
            except Exception as error:
                self._fail(state, job, error)
            else:
                self._merge(state, job, output)

    def _run_pool(
        self,
        state: _RunState,
        pending: list[SimJob],
        context: multiprocessing.context.BaseContext,
    ) -> None:
        workers = self._effective_workers(len(pending))
        timeout = self.job_timeout
        scope = _scope.get()
        if scope is None:
            pool = _new_pool(workers, context)
        else:
            pool = scope.borrow(workers, context)
        poisoned = False
        drained = False
        try:
            # Submit at most ``workers`` jobs at a time so a dispatched
            # future starts executing immediately — that makes "time since
            # dispatch" the right clock for the per-job timeout.
            queue = list(reversed(pending))
            futures: dict = {}
            deadlines: dict = {}
            # Futures still in flight, insertion-ordered (dispatch order).
            outstanding: dict = {}

            def submit_next() -> None:
                job = queue.pop()
                future = pool.submit(
                    _runner.job_entry, job.workload, job.config, job.n_instructions
                )
                futures[future] = job
                outstanding[future] = None
                if timeout is not None:
                    deadlines[future] = time.monotonic() + timeout  # lint-ok: SIM002 timeout deadline bookkeeping

            while queue and len(outstanding) < workers:
                submit_next()
            while outstanding:
                if timeout is not None:
                    slack = min(deadlines[f] for f in outstanding) - time.monotonic()  # lint-ok: SIM002 timeout deadline bookkeeping
                    completed, _ = wait(
                        list(outstanding),
                        timeout=max(slack, 0.0),
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    completed, _ = wait(
                        list(outstanding), return_when=FIRST_COMPLETED
                    )
                if not completed and timeout is not None:
                    now = time.monotonic()  # lint-ok: SIM002 timeout deadline bookkeeping
                    for future in [
                        f for f in outstanding if deadlines.get(f, 0.0) <= now
                    ]:
                        if future.done():
                            continue  # finished at the wire: next wait() returns it
                        # Running (or queued behind a wedged worker) —
                        # either way it missed its budget: abandon it.  The
                        # hung process is killed after the loop drains.
                        future.cancel()
                        outstanding.pop(future, None)
                        poisoned = True
                        job = futures[future]
                        self.stats.counters.add("jobs_timed_out")
                        self._fail(state, job, JobTimeoutError(job, timeout))
                        if queue:
                            submit_next()
                for future in sorted(completed, key=lambda f: futures[f].key):
                    outstanding.pop(future, None)
                    deadlines.pop(future, None)
                    job = futures[future]
                    try:
                        output = future.result()
                    except Exception as error:
                        self._fail(state, job, error)
                    else:
                        self._merge(state, job, output)
                    if queue:
                        submit_next()
            drained = True
        finally:
            if scope is None:
                _shutdown(pool, poisoned)
            elif poisoned or not drained:
                # A wedged worker, or futures still in flight: the next
                # batch must not inherit either.
                scope.discard(poisoned)


def run_jobs(
    jobs: list[SimJob],
    *,
    workers: int | None = None,
    progress=None,
    job_timeout: float | None = None,
) -> dict[str, SimResult]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(
        jobs=workers, progress=progress, job_timeout=job_timeout
    ).run(jobs)

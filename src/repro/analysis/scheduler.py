"""The engine's core: one set of worker slots, one queue, one failure policy.

Every figure reproduction fans out dozens of independent ``(workload,
config, n_instructions)`` simulations, and the experiment server runs the
same jobs for its clients.  Both run them through one :class:`Scheduler`:

* **Slots and one queue.**  N restartable single-worker slots (one process
  each, or one thread in ``thread`` mode for tests) pull from one priority
  queue, so whichever slot is free takes the next flight.  Queued flights
  drain in ``(-priority, arrival)`` order.
* **Single-flight.**  :meth:`Scheduler.submit` coalesces by cache key:
  while a flight for a key is queued or running, later submits join it
  (refcounted).  Cache hits resolve in ``submit`` through
  :func:`repro.analysis.runner.probe` and never touch a slot.
* **Failure policy.**  Every failure is a typed :class:`JobError` scoped
  to its own flight.  A worker that dies mid-job (or while idle) gets its
  slot restarted and the job retried with exponential backoff; when
  retries run out the key is quarantined and later submits fail fast with
  ``quarantined``.  A job past its per-job timeout restarts only its own
  slot (the worker may be wedged) and fails with ``timeout``.  A job that
  raises, or a slot that cannot start a worker, fails with ``internal``.
* **Cancellation.**  Releasing the last reference to a flight cancels it:
  a queued flight is dropped before dispatch; a running one has its slot
  restarted.

Every job, in process (:func:`run_inline`) or in a slot, runs
:func:`repro.analysis.runner.job_entry`, looked up at dispatch: the seam
test doubles and the service fault injectors patch.  The synchronous
façade the CLI and the experiment drivers use is
:class:`repro.analysis.parallel.ParallelRunner`.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import multiprocessing
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.context import BaseContext
from typing import Any

from repro.analysis import runner as _runner
from repro.common.stats import StatBlock
from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult
from repro.observe import telemetry
from repro.observe.telemetry import Span, SpanContext

__all__ = [
    "ERROR_CODES",
    "Flight",
    "FlightResult",
    "JobError",
    "Scheduler",
    "SimJob",
    "WorkerSlot",
    "resolve_job_count",
    "resolve_job_timeout",
    "run_inline",
]


#: Every typed failure code, shared by engine jobs and the serve protocol.
#:
#: * ``bad-request``   — unparsable JSON, unknown fields, bad matrix;
#: * ``unknown-workload`` — a name in neither the suite nor the
#:   ingested-trace store;
#: * ``timeout``       — a job ran past the per-job timeout;
#: * ``worker-crash``  — the worker process died (killed, segfault) and
#:   retries were exhausted;
#: * ``quarantined``   — the key previously crashed its workers and is
#:   refused fast until the quarantine is cleared;
#: * ``cache-corrupt`` — the cache tier itself failed while serving
#:   (distinct from a corrupt *entry*, which silently re-simulates);
#: * ``cancelled``     — the client (or a disconnect) cancelled the run;
#: * ``overloaded``    — the server refused new work (queue bound);
#: * ``internal``      — anything else; the detail names the exception.
ERROR_CODES = frozenset(
    {
        "bad-request",
        "unknown-workload",
        "timeout",
        "worker-crash",
        "quarantined",
        "cache-corrupt",
        "cancelled",
        "overloaded",
        "internal",
    }
)


class JobError(Exception):
    """A typed failure of one job or request; maps onto one protocol
    ``error`` line."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        self.code = code
        super().__init__(message)

    def as_message(self, request_id: str | None = None) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "error",
            "code": self.code,
            "message": str(self),
        }
        if request_id is not None:
            record["id"] = request_id
        return record


@dataclass(frozen=True)
class SimJob:
    """One unit of work: simulate ``workload`` under ``config``.

    ``key`` is the job's result-cache key, computed at its first read and
    kept for the job's life: dedup, quarantine, single-flight, the cache
    probe and the reply all read that one value.  A job built after an
    ingested trace is re-registered gets the new trace's key.  ``token``
    is the workload's cache token when the builder has already resolved
    it (a served matrix reads the trace-store manifest once for all its
    jobs); it is not part of the job's eq, hash or repr.
    """

    workload: str
    config: SimConfig
    n_instructions: int = 40_000
    token: str | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def key(self) -> str:
        return _runner.cache_key(
            self.workload, self.n_instructions, self.config, self.token
        )

    def describe(self) -> str:
        return f"{self.workload}@{self.n_instructions}"


def _internal(job: SimJob, error: BaseException) -> JobError:
    """The typed failure of a job body (or a slot) that raised."""
    return JobError(
        "internal", f"{job.describe()} failed: {type(error).__name__}: {error}"
    )


def resolve_job_count(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_SIM_JOBS`` > ``os.cpu_count()``.

    :class:`repro.analysis.parallel.ParallelRunner` passes the enclosing
    :func:`~repro.analysis.parallel.pool_scope`'s ``jobs`` as the explicit
    argument when it has none of its own.
    """
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


# -- telemetry seams (each call site pays one pointer test) -----------------


def _count_job(outcome: str, n: int = 1) -> None:
    tel = telemetry.maybe()
    if tel is not None and n:
        tel.counter(
            "repro_sched_jobs_total",
            "Job outcomes, served and CLI (process lifetime).",
            labels=("outcome",),
        ).inc(n, outcome=outcome)


def _record_event(ring: str, event: str, **fields: Any) -> None:
    rec = telemetry.maybe_recorder()
    if rec is not None:
        rec.record(ring, event, **fields)


@dataclass(frozen=True)
class FlightResult:
    """What one resolved flight hands every joined request."""

    result: SimResult
    cached: bool
    source: str  # "memory" | "disk" | "simulated"
    seconds: float
    taxonomy: dict[str, Any] | None


def _merge(job: SimJob, output: _runner.JobOutput) -> FlightResult:
    """Publish one finished job body's output in this process: keep one
    result object per key, re-record the job's spans, count it."""
    result, seconds, taxonomy, spans = output
    result = _runner._memory_cache.setdefault(job.key, result)
    _runner.record_spans(spans)
    _count_job("simulated")
    tel = telemetry.maybe()
    if tel is not None:
        tel.histogram(
            "repro_sched_job_seconds",
            "Worker wall seconds per simulated job.",
        ).observe(seconds)
    return FlightResult(result, False, "simulated", seconds, taxonomy)


def run_inline(job: SimJob) -> FlightResult:
    """Run one job body in this process, merged exactly like a slot's
    result; a body that raises fails with ``internal``."""
    try:
        output = _runner.job_entry(
            job.workload, job.config, job.n_instructions, False, None, job.key
        )
    except Exception as error:
        _count_job("failed")
        raise _internal(job, error) from error
    return _merge(job, output)


# -- worker slots -----------------------------------------------------------


def _pool_context() -> BaseContext | None:
    """Pick a start method, preferring fork (cheap, inherits warm state)."""
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn", "forkserver"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


def _new_executor(mode: str) -> Executor:
    """The one place the engine builds an executor: one worker, a process
    (when the platform has a start method) or, in thread mode, a thread."""
    context = _pool_context() if mode == "process" else None
    if context is None:
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-slot")
    # The pool class is looked up on the façade module at call time, so a
    # wrapper patched over ``repro.analysis.parallel.ProcessPoolExecutor``
    # (a profiler's, a test's) sees every worker start.
    from repro.analysis import parallel

    return parallel.ProcessPoolExecutor(
        max_workers=1,
        mp_context=context,
        initializer=_worker_init,
        initargs=(os.getpid(),),
    )


def _worker_init(parent_pid: int) -> None:
    """Worker-process initializer: run below the parent's CPU priority,
    and exit if the parent dies.

    The default slot count equals the CPU count, so busy workers would
    otherwise take CPU time from the parent's event loop, which answers
    cache hits and dispatches jobs.  A SIGKILLed parent cannot shut the
    pool down, and every worker holds the call-queue pipe open, so idle
    workers would otherwise block on it forever.  A watchdog thread
    notices the re-parenting and exits; the atomic cache writes make
    dying mid-job harmless.
    """
    if hasattr(os, "nice"):
        os.nice(10)

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


class WorkerSlot:
    """One execution slot: a single-worker executor, started at its first
    job and restarted when its worker crashes, wedges or is cancelled."""

    def __init__(self, index: int, mode: str) -> None:
        self.index = index
        self.mode = mode
        #: Flight-recorder ring (and ``shard`` metric label) of this slot.
        self.name = f"shard-{index}"
        self.restarts = 0
        self._pool: Executor | None = None

    def submit(
        self, job: SimJob, observe: bool, trace_wire: dict[str, Any] | None
    ) -> Future[_runner.JobOutput]:
        """Hand ``job`` to this slot's worker, starting one if the slot has
        none and replacing one that died while idle.  The job stores its
        result under the cache directory current now."""
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self.restart()
        if self._pool is None:
            self._pool = _new_executor(self.mode)
        return self._pool.submit(
            _runner.job_entry,
            job.workload,
            job.config,
            job.n_instructions,
            observe,
            trace_wire,
            job.key,
            _runner._cache_dir(),
        )

    def restart(self) -> None:
        """Kill this slot's worker (it may be wedged); the next job starts
        a fresh one."""
        self.restarts += 1
        self.close(kill=True)

    def close(self, kill: bool) -> None:
        """Join the worker, or kill it when it may be busy or wedged."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not kill:
            pool.shutdown(wait=True)
            return
        # Snapshot the process table first — the executor's management
        # thread nulls it out during teardown.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass


# -- the scheduler ----------------------------------------------------------


# Flight lifecycle states.
_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"


class Flight:
    """One in-progress (or resolved) simulation, shared by every request
    that asked for its key while it was alive."""

    def __init__(self, job: SimJob, priority: int, timeout: float | None) -> None:
        self.job = job
        self.key = job.key
        self.priority = priority
        self.timeout = timeout
        self.state = _QUEUED
        self.refs = 1
        self.future: asyncio.Future[FlightResult] = (
            asyncio.get_running_loop().create_future()
        )
        #: Progress-event callbacks (one per streaming subscriber).
        self.subscribers: list[Callable[[dict[str, Any]], None]] = []
        #: The dispatcher's work task while running (cancellation handle).
        self._work: asyncio.Task[Any] | None = None
        #: Telemetry (populated only when REPRO_SIM_TELEMETRY is on): the
        #: request's propagated trace context, this flight's ``sched.job``
        #: span, and the enqueue timestamp for the queue-wait histogram.
        self.trace: SpanContext | None = None
        self.span: Span | None = None
        self.queued_at: float | None = None

    def emit(self, event: dict[str, Any]) -> None:
        for callback in list(self.subscribers):
            callback(event)

    async def wait(self) -> FlightResult:
        """Wait for resolution without cancelling the shared flight if
        *this* waiter is cancelled (other requests may still want it)."""
        return await asyncio.shield(self.future)

    @property
    def done(self) -> bool:
        return self.state in (_DONE, _CANCELLED)


class Scheduler:
    """Single-flight, priority-aware job scheduler over worker slots.

    Parameters
    ----------
    slots:
        Worker-slot count; ``None`` resolves via :func:`resolve_job_count`.
        Each slot owns one worker, started at its first job.
    mode:
        ``"process"`` (isolated workers, restartable on crash/timeout) or
        ``"thread"`` (in-process, for tests — crashes cannot be contained
        but everything is observable and fast).
    observe:
        Run jobs with the observer armed, so results carry the stall
        taxonomy a served stream reports (the server's choice; CLI batches
        do not need it).
    job_timeout:
        Per-job budget in seconds (default ``REPRO_SIM_JOB_TIMEOUT``).
    retries:
        Worker-crash retries per flight before the key is quarantined.
    backoff:
        Base of the exponential retry backoff, in seconds.

    :meth:`start` runs one dispatcher per slot on the running loop and
    :meth:`stop` ends them; the slots' workers outlive both, so one
    scheduler can serve several event loops, until :meth:`shutdown` (or
    :meth:`close`, which stops and kills) ends the workers.
    """

    def __init__(
        self,
        slots: int | None = None,
        *,
        mode: str = "process",
        observe: bool = True,
        job_timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown slot mode {mode!r}")
        self.mode = mode
        self.observe = observe
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.retries = max(0, retries)
        self.backoff = backoff
        self.counters = StatBlock("scheduler")
        self.slots = [WorkerSlot(i, mode) for i in range(resolve_job_count(slots))]
        #: ``(-priority, seq, key)`` heap of queued flight keys.
        self._heap: list[tuple[int, int, str]] = []
        self._flights: dict[str, Flight] = {}
        self._quarantine: dict[str, str] = {}
        self._seq = itertools.count()
        self._wake: asyncio.Event | None = None
        self._dispatchers: list[asyncio.Task[None]] = []
        self._closing = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._dispatchers:
            return
        self._closing = False
        self._wake = asyncio.Event()
        self._dispatchers = [
            asyncio.create_task(self._dispatch(slot), name=slot.name)
            for slot in self.slots
        ]

    async def stop(self) -> None:
        """End the dispatchers and cancel every unresolved flight; a slot
        stopped mid-job has its worker killed."""
        self._closing = True
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        self._wake = None
        for flight in list(self._flights.values()):
            if not flight.done:
                self._finish(
                    flight, error=JobError("cancelled", "scheduler shut down")
                )
        self._heap.clear()

    async def close(self) -> None:
        await self.stop()
        self.shutdown(kill=True)

    def shutdown(self, kill: bool = False) -> None:
        """End every slot's worker: join it, or kill it."""
        for slot in self.slots:
            slot.close(kill)

    # -- submission ---------------------------------------------------------

    @property
    def queued(self) -> int:
        """Queued flight keys (lazily deleted entries included)."""
        return len(self._heap)

    def admit(self, job: SimJob) -> None:
        """Refuse a quarantined key with ``quarantined``."""
        reason = self._quarantine.get(job.key)
        if reason is not None:
            self.counters.add("jobs_quarantined")
            _count_job("quarantined_reject")
            raise JobError(
                "quarantined", f"{job.describe()} is quarantined: {reason}"
            )

    def submit(
        self,
        job: SimJob,
        *,
        priority: int = 0,
        timeout: float | None = None,
        trace: SpanContext | None = None,
        probed: bool = False,
    ) -> Flight:
        """Resolve-or-enqueue one job; returns its (possibly shared) flight.

        ``trace`` is the requesting span's context (from the protocol's
        ``trace`` field); a new flight opens a child ``sched.job`` span
        under it when telemetry is on.  ``probed`` means the caller
        (:class:`~repro.analysis.parallel.ParallelRunner`) has already
        counted the request and missed the caches.  Raises
        :class:`JobError` (``quarantined`` / ``cache-corrupt``) instead of
        enqueueing when the key is known-bad or the cache tier itself
        fails.
        """
        if not probed:
            self.counters.add("jobs_requested")
            _count_job("requested")
        self.admit(job)

        flight = self._flights.get(job.key)
        if flight is not None and not flight.done:
            flight.refs += 1
            if priority > flight.priority:
                # Escalate: requeue under the higher priority (the heap
                # entry for the old priority is lazily skipped).
                flight.priority = priority
                if flight.state == _QUEUED:
                    self._enqueue(flight)
                tel = telemetry.maybe()
                if tel is not None:
                    tel.counter(
                        "repro_sched_escalations_total",
                        "Queued flights whose priority was raised by a "
                        "later request.",
                    ).inc()
            self.counters.add("jobs_coalesced")
            _count_job("coalesced")
            return flight

        if not probed:
            cached, source = self._probe_cache(job)
            if cached is not None:
                self.counters.add(f"jobs_from_{source}")
                _count_job(f"from_{source}")
                flight = Flight(job, priority, timeout)
                flight.state = _DONE
                flight.future.set_result(
                    FlightResult(cached, True, source, 0.0, None)
                )
                return flight

        flight = Flight(
            job, priority, timeout if timeout is not None else self.job_timeout
        )
        flight.trace = trace
        sink = telemetry.maybe_spans()
        if sink is not None:
            flight.span = sink.start_span(
                "sched.job",
                parent=trace,
                attrs={"workload": job.workload, "key": job.key},
            )
            flight.queued_at = time.monotonic()  # lint-ok: SIM002 queue-wait telemetry
            _record_event(
                "queue",
                "job-submitted",
                key=job.key,
                workload=job.workload,
                priority=priority,
            )
        self._flights[job.key] = flight
        self._enqueue(flight)
        return flight

    def release(self, flight: Flight) -> None:
        """Drop one request's interest in ``flight``; the last release
        cancels it (queued → dropped; running → worker killed)."""
        if flight.done:
            return
        flight.refs -= 1
        if flight.refs > 0:
            return
        if flight.state == _RUNNING and flight._work is not None:
            flight._work.cancel()
            return  # the dispatcher finishes the cancellation
        self._finish(
            flight,
            error=JobError("cancelled", f"{flight.job.describe()} cancelled"),
        )

    def clear_quarantine(self, key: str | None = None) -> int:
        """Forget quarantined keys (all of them when ``key`` is None)."""
        if key is not None:
            return 1 if self._quarantine.pop(key, None) is not None else 0
        count = len(self._quarantine)
        self._quarantine.clear()
        return count

    def stats(self) -> dict[str, Any]:
        return {
            "counters": self.counters.as_dict(),
            "shards": len(self.slots),
            "mode": self.mode,
            "queued": self.queued,
            "in_flight": sum(
                1 for f in self._flights.values() if f.state == _RUNNING
            ),
            "restarts": sum(slot.restarts for slot in self.slots),
            "quarantined": sorted(self._quarantine),
        }

    # -- internals ----------------------------------------------------------

    def _probe_cache(self, job: SimJob) -> tuple[SimResult | None, str]:
        try:
            return _runner.probe(job.key)
        except Exception as error:
            self.counters.add("cache_errors")
            raise JobError(
                "cache-corrupt",
                f"cache read for {job.describe()} failed: "
                f"{type(error).__name__}: {error}",
            ) from error

    def _set_queue_gauge(self) -> None:
        tel = telemetry.maybe()
        if tel is not None:
            tel.gauge(
                "repro_sched_queue_depth",
                "Queued flights (lazily deleted heap entries included).",
            ).set(len(self._heap))

    def _enqueue(self, flight: Flight) -> None:
        heapq.heappush(self._heap, (-flight.priority, next(self._seq), flight.key))
        self._set_queue_gauge()
        if self._wake is not None:
            self._wake.set()

    def _next_flight(self) -> Flight | None:
        """Pop the best queued flight, skipping cancelled, resolved and
        escalated-duplicate entries."""
        while self._heap:
            _, _, key = heapq.heappop(self._heap)
            flight = self._flights.get(key)
            if flight is not None and flight.state == _QUEUED:
                self._set_queue_gauge()
                return flight
        self._set_queue_gauge()
        return None

    def _finish(
        self,
        flight: Flight,
        outcome: FlightResult | None = None,
        error: JobError | None = None,
    ) -> None:
        if flight.done:
            return
        cancelled = error is not None and error.code == "cancelled"
        flight.state = _CANCELLED if cancelled else _DONE
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]
        if flight.span is not None:
            sink = telemetry.maybe_spans()
            if sink is not None:
                sink.finish(
                    flight.span,
                    outcome="error" if error is not None else "ok",
                    code=None if error is None else error.code,
                )
            flight.span = None
        if not flight.future.done():
            if error is not None:
                if cancelled:
                    self.counters.add("jobs_cancelled")
                flight.future.set_exception(error)
            else:
                assert outcome is not None
                flight.future.set_result(outcome)
        # A consumed exception that nobody awaits must not warn at GC.
        if error is not None:
            flight.future.exception()

    async def _dispatch(self, slot: WorkerSlot) -> None:
        """One slot's loop: take the best queued flight, run it, resolve it."""
        assert self._wake is not None
        while True:
            flight = self._next_flight()
            if flight is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._execute(slot, flight)

    async def _execute(self, slot: WorkerSlot, flight: Flight) -> None:
        """Run one flight and resolve it; whatever goes wrong resolves the
        flight, so the dispatcher lives on to take the next one."""
        flight.state = _RUNNING
        tel = telemetry.maybe()
        if tel is not None and flight.queued_at is not None:
            tel.histogram(
                "repro_sched_queue_wait_seconds",
                "Seconds a flight waited in the queue before dispatch.",
            ).observe(time.monotonic() - flight.queued_at)  # lint-ok: SIM002 queue-wait telemetry
        _record_event(
            slot.name, "job-started", key=flight.key, workload=flight.job.workload
        )
        flight.emit(
            {"event": "job-started", "key": flight.key, "workload": flight.job.workload}
        )
        work = asyncio.ensure_future(self._run_flight(slot, flight))
        flight._work = work
        try:
            outcome = await work
        except asyncio.CancelledError:
            # Either the scheduler is stopping or the last release()
            # cancelled the flight.  The worker may still be crunching:
            # kill it so the slot is free for the next job.
            if self._closing:
                slot.close(kill=True)
                raise
            slot.restart()
            _count_job("cancelled")
            _record_event(slot.name, "job-cancelled", key=flight.key)
            self._finish(
                flight,
                error=JobError("cancelled", f"{flight.job.describe()} cancelled"),
            )
        except Exception as raised:
            error = (
                raised if isinstance(raised, JobError) else _internal(flight.job, raised)
            )
            self.counters.add("jobs_failed")
            _count_job("failed")
            _record_event(
                slot.name,
                "job-failed",
                key=flight.key,
                code=error.code,
                detail=str(error),
            )
            self._finish(flight, error=error)
        else:
            self.counters.add("jobs_simulated")
            _record_event(
                slot.name,
                "job-finished",
                key=flight.key,
                workload=flight.job.workload,
                seconds=round(outcome.seconds, 6),
            )
            self._finish(flight, outcome)

    async def _run_flight(self, slot: WorkerSlot, flight: Flight) -> FlightResult:
        """Execute one flight on a slot: timeout, retry, quarantine."""
        job = flight.job
        timeout = flight.timeout
        trace_wire = (
            flight.span.context.as_wire() if flight.span is not None else None
        )
        attempt = 0
        while True:
            try:
                # Inside the try: a worker that died since the slot's last
                # job can break the executor before any wait starts.
                pending = slot.submit(job, self.observe, trace_wire)
                self.counters.add("pool_dispatches")
                output = await asyncio.wait_for(asyncio.wrap_future(pending), timeout)
            except asyncio.TimeoutError:
                slot.restart()  # the worker is presumed wedged
                self.counters.add("jobs_timed_out")
                _count_job("timed_out")
                self._note_restart(slot, "timeout", job)
                raise JobError(
                    "timeout",
                    f"{job.describe()} exceeded the "
                    f"{timeout:.1f}s per-job timeout",
                ) from None
            except BrokenExecutor as error:
                slot.restart()
                attempt += 1
                if attempt > self.retries:
                    reason = f"worker died ({type(error).__name__})"
                    self._quarantine[job.key] = reason
                    self.counters.add("jobs_crashed")
                    _count_job("crashed")
                    _record_event(
                        slot.name, "job-quarantined", key=job.key, reason=reason
                    )
                    self._note_restart(slot, "worker-crash", job)
                    raise JobError(
                        "worker-crash",
                        f"{job.describe()}: {reason} after "
                        f"{attempt} attempt(s); key quarantined",
                    ) from error
                self.counters.add("worker_retries")
                _count_job("retried")
                _record_event(slot.name, "job-retry", key=job.key, attempt=attempt)
                await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))
            except Exception as error:  # the job itself raised
                raise _internal(job, error) from error
            else:
                return _merge(job, output)

    def _note_restart(self, slot: WorkerSlot, reason: str, job: SimJob) -> None:
        """Slot-restart telemetry: labeled counter, ring event, crash dump.

        Called *after* the restart on the crash/timeout paths — exactly
        the moments the flight recorder exists for, so the slot's ring
        (ending with this job's final events) is dumped to an artifact.
        """
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_sched_restarts_total",
                "Worker-slot restarts by slot and reason.",
                labels=("shard", "reason"),
            ).inc(shard=str(slot.index), reason=reason)
        _record_event(slot.name, "shard-restart", reason=reason, key=job.key)
        rec = telemetry.maybe_recorder()
        if rec is not None:
            rec.dump(slot.name, reason)

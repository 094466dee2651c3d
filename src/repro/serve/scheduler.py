"""Sharded asyncio scheduler: single-flight, priority, cancellation.

The server's execution core.  Jobs are hashed by cache key onto a fixed
set of :class:`WorkerShard` slots (each one process — or one thread in
``thread`` mode for tests), so one poisoned key can only wedge its own
shard while the others keep serving.  Per shard, queued flights drain in
``(-priority, arrival)`` order off a heap.

**Single-flight across clients.**  :meth:`Scheduler.submit` coalesces by
cache key: while a flight for a key is queued or running, later submits
join it (refcounted) instead of spawning duplicate work — the service
extension of ``run_cached``'s in-process single-flight.  Cache hits
resolve in ``submit`` itself, through the same
:func:`repro.analysis.runner.probe` as the CLI paths, and never touch a
pool.

**Failure containment.**  A worker that dies mid-job (``BrokenExecutor``)
gets its shard restarted and the job retried with exponential backoff;
when retries are exhausted the key is quarantined — subsequent submits
fail fast with ``quarantined`` instead of re-crashing workers.  A job
past its timeout gets its shard restarted (the worker may be wedged) and
fails with ``timeout``.  Every failure is a typed
:class:`~repro.serve.protocol.ServeError` scoped to its own flight;
other flights, on the same shard or not, are unaffected.

**Cancellation.**  Flights are refcounted by interested requests.
Releasing the last reference cancels the flight: a queued flight is
dropped before dispatch (lazy heap deletion); a running one has its
worker killed via shard restart, leaving the shard schedulable.

**One job body.**  A shard runs :func:`repro.analysis.runner.job_entry`
— the seam ``ParallelRunner`` runs too, looked up when the job is
submitted — with the observer armed, so served results are the CLI's
results and the cache entries are shared.  Test doubles and the service
fault injectors patch that one seam.  Process shards are built and torn
down by the engine's own pool helpers.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import time
from concurrent.futures import BrokenExecutor, Executor, Future, ThreadPoolExecutor
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.analysis import runner as _runner
from repro.analysis.parallel import (
    SimJob,
    _new_pool,
    _pool_context,
    _shutdown,
    resolve_job_timeout,
)
from repro.common.stats import StatBlock
from repro.core.pipeline import SimResult
from repro.observe import telemetry
from repro.observe.telemetry import Span, SpanContext
from repro.serve import eviction
from repro.serve.protocol import ServeError

__all__ = [
    "Flight",
    "FlightResult",
    "Scheduler",
    "WorkerShard",
]


def _default_shards() -> int:
    raw = os.environ.get("REPRO_SERVE_SHARDS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(2, min(4, (os.cpu_count() or 2) // 2))


@dataclass(frozen=True)
class FlightResult:
    """What one resolved flight hands every joined request."""

    result: SimResult
    cached: bool
    source: str  # "memory" | "disk" | "simulated"
    seconds: float
    taxonomy: dict[str, Any] | None


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
        #: Telemetry (populated only when REPRO_SIM_TELEMETRY is on):
        #: the request's propagated trace context, this flight's
        #: ``sched.job`` span, and the enqueue timestamp for the
        #: queue-wait histogram.
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


class WorkerShard:
    """One execution slot: a single-worker pool that can be restarted."""

    def __init__(self, index: int, mode: str = "process") -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown shard mode {mode!r}")
        self.index = index
        self.mode = mode
        self.restarts = 0
        self.wake = asyncio.Event()
        #: ``(-priority, seq, key)`` heap of queued flight keys.
        self.heap: list[tuple[int, int, str]] = []
        self._pool: Executor | None = None

    def pool(self) -> Executor:
        if self._pool is None:
            context = _pool_context() if self.mode == "process" else None
            if context is not None:
                self._pool = _new_pool(1, context)
            else:  # thread mode, or no usable start method on this platform
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard-{self.index}"
                )
        return self._pool

    def submit(
        self, job: SimJob, trace_wire: dict[str, Any] | None = None
    ) -> Future[_runner.JobOutput]:
        return self.pool().submit(
            _runner.job_entry,
            job.workload,
            job.config,
            job.n_instructions,
            True,  # observe: served streams carry the stall taxonomy
            trace_wire,
        )

    def restart(self) -> None:
        """Kill this shard's worker (it may be wedged) and start fresh."""
        self.restarts += 1
        self.close()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            _shutdown(pool, poisoned=True)


@dataclass
class _SchedulerConfig:
    shards: int
    mode: str
    job_timeout: float | None
    retries: int
    backoff: float


class Scheduler:
    """Sharded, single-flight, priority-aware job scheduler.

    Parameters
    ----------
    shards:
        Worker-slot count (default: ``REPRO_SERVE_SHARDS`` or a
        core-count heuristic).  Each shard owns one worker.
    mode:
        ``"process"`` (isolated workers, restartable on crash/timeout) or
        ``"thread"`` (in-process, for tests — crashes cannot be contained
        but everything is observable and fast).
    job_timeout:
        Per-job budget in seconds (default ``REPRO_SIM_JOB_TIMEOUT``).
    retries:
        Worker-crash retries per flight before the key is quarantined.
    backoff:
        Base of the exponential retry backoff, in seconds.
    """

    def __init__(
        self,
        shards: int | None = None,
        *,
        mode: str = "process",
        job_timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.05,
    ) -> None:
        self.config = _SchedulerConfig(
            shards=shards if shards is not None else _default_shards(),
            mode=mode,
            job_timeout=resolve_job_timeout(job_timeout),
            retries=max(0, retries),
            backoff=backoff,
        )
        self.counters = StatBlock("serve_scheduler")
        self.shards = [
            WorkerShard(i, mode=mode) for i in range(self.config.shards)
        ]
        self._flights: dict[str, Flight] = {}
        self._quarantine: dict[str, str] = {}
        self._seq = itertools.count()
        self._dispatchers: list[asyncio.Task[None]] = []
        self._closing = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._dispatchers:
            return
        self._closing = False
        self._dispatchers = [
            asyncio.create_task(self._dispatch(shard), name=f"shard-{shard.index}")
            for shard in self.shards
        ]

    async def close(self) -> None:
        self._closing = True
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        for flight in list(self._flights.values()):
            if not flight.done:
                self._finish(
                    flight, error=ServeError("cancelled", "scheduler shut down")
                )
        for shard in self.shards:
            shard.close()

    # -- submission ---------------------------------------------------------

    def shard_for(self, key: str) -> WorkerShard:
        return self.shards[int(key, 16) % len(self.shards)]

    # -- telemetry seams (each call site pays one pointer test) -------------

    def _count_job(self, outcome: str) -> None:
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_sched_jobs_total",
                "Scheduler job outcomes (process lifetime).",
                labels=("outcome",),
            ).inc(outcome=outcome)

    def _record_event(self, shard_name: str, event: str, **fields: Any) -> None:
        rec = telemetry.maybe_recorder()
        if rec is not None:
            rec.record(shard_name, event, **fields)

    def _set_queue_gauge(self, shard: WorkerShard) -> None:
        tel = telemetry.maybe()
        if tel is not None:
            tel.gauge(
                "repro_sched_queue_depth",
                "Flights queued per shard (lazy heap entries included).",
                labels=("shard",),
            ).set(len(shard.heap), shard=str(shard.index))

    def submit(
        self,
        job: SimJob,
        *,
        priority: int = 0,
        timeout: float | None = None,
        trace: SpanContext | None = None,
    ) -> Flight:
        """Resolve-or-enqueue one job; returns its (possibly shared) flight.

        ``trace`` is the requesting span's context (from the protocol's
        ``trace`` field); a new flight opens a child ``sched.job`` span
        under it when telemetry is on.  Raises :class:`ServeError`
        (``quarantined`` / ``cache-corrupt``) instead of enqueueing when
        the key is known-bad or the cache tier itself fails.
        """
        self.counters.add("jobs_requested")
        self._count_job("requested")
        quarantined = self._quarantine.get(job.key)
        if quarantined is not None:
            self.counters.add("jobs_quarantined")
            self._count_job("quarantined_reject")
            raise ServeError(
                "quarantined", f"{job.describe()} is quarantined: {quarantined}"
            )

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
            self._count_job("coalesced")
            return flight

        cached, source = self._probe_cache(job)
        if cached is not None:
            self.counters.add(f"jobs_from_{source}")
            self._count_job(f"from_{source}")
            flight = Flight(job, priority, timeout)
            flight.state = _DONE
            flight.future.set_result(
                FlightResult(
                    result=cached,
                    cached=True,
                    source=source,
                    seconds=0.0,
                    taxonomy=None,
                )
            )
            return flight

        flight = Flight(
            job, priority, timeout if timeout is not None else self.config.job_timeout
        )
        flight.trace = trace
        sink = telemetry.maybe_spans()
        if sink is not None:
            shard = self.shard_for(job.key)
            flight.span = sink.start_span(
                "sched.job",
                parent=trace,
                attrs={
                    "workload": job.workload,
                    "key": job.key,
                    "shard": shard.index,
                },
            )
            flight.queued_at = time.monotonic()  # lint-ok: SIM002 queue-wait telemetry
            self._record_event(
                f"shard-{shard.index}",
                "job-submitted",
                key=job.key,
                workload=job.workload,
                priority=priority,
            )
        self._flights[job.key] = flight
        eviction.protect(job.key)
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
            error=ServeError("cancelled", f"{flight.job.describe()} cancelled"),
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
            "shards": len(self.shards),
            "mode": self.config.mode,
            "queued": sum(len(shard.heap) for shard in self.shards),
            "in_flight": sum(
                1 for f in self._flights.values() if f.state == _RUNNING
            ),
            "restarts": sum(shard.restarts for shard in self.shards),
            "quarantined": sorted(self._quarantine),
        }

    # -- internals ----------------------------------------------------------

    def _probe_cache(self, job: SimJob) -> tuple[SimResult | None, str]:
        try:
            return _runner.probe(job.key)
        except Exception as error:
            self.counters.add("cache_errors")
            raise ServeError(
                "cache-corrupt",
                f"cache read for {job.describe()} failed: "
                f"{type(error).__name__}: {error}",
            ) from error

    def _enqueue(self, flight: Flight) -> None:
        shard = self.shard_for(flight.key)
        heapq.heappush(
            shard.heap, (-flight.priority, next(self._seq), flight.key)
        )
        self._set_queue_gauge(shard)
        shard.wake.set()

    def _finish(
        self,
        flight: Flight,
        outcome: FlightResult | None = None,
        error: ServeError | None = None,
    ) -> None:
        if flight.done:
            return
        cancelled = error is not None and error.code == "cancelled"
        flight.state = _CANCELLED if cancelled else _DONE
        if self._flights.get(flight.key) is flight:
            del self._flights[flight.key]
        eviction.unprotect(flight.key)
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
                if error.code == "cancelled":
                    self.counters.add("jobs_cancelled")
                flight.future.set_exception(error)
            else:
                assert outcome is not None
                flight.future.set_result(outcome)
        # A consumed exception that nobody awaits must not warn at GC.
        if error is not None:
            flight.future.exception()

    async def _dispatch(self, shard: WorkerShard) -> None:
        """One shard's drain loop: pop priority order, execute, resolve."""
        while not self._closing:
            await shard.wake.wait()
            shard.wake.clear()
            while shard.heap:
                _, _, key = heapq.heappop(shard.heap)
                self._set_queue_gauge(shard)
                flight = self._flights.get(key)
                if flight is None or flight.done or flight.state != _QUEUED:
                    continue  # cancelled, resolved, or an escalated duplicate
                flight.state = _RUNNING
                tel = telemetry.maybe()
                if tel is not None and flight.queued_at is not None:
                    tel.histogram(
                        "repro_sched_queue_wait_seconds",
                        "Seconds a flight waited in its shard queue before "
                        "dispatch.",
                    ).observe(time.monotonic() - flight.queued_at)  # lint-ok: SIM002 queue-wait telemetry
                self._record_event(
                    f"shard-{shard.index}",
                    "job-started",
                    key=flight.key,
                    workload=flight.job.workload,
                )
                flight.emit(
                    {
                        "event": "job-started",
                        "key": flight.key,
                        "workload": flight.job.workload,
                    }
                )
                work = asyncio.ensure_future(self._run_flight(shard, flight))
                flight._work = work
                try:
                    outcome = await work
                except asyncio.CancelledError:
                    if self._closing:
                        raise
                    # Cancelled mid-run by the last release(): the worker
                    # may still be crunching — kill it so the shard is
                    # immediately schedulable again.
                    shard.restart()
                    self._count_job("cancelled")
                    self._record_event(
                        f"shard-{shard.index}", "job-cancelled", key=flight.key
                    )
                    self._finish(
                        flight,
                        error=ServeError(
                            "cancelled", f"{flight.job.describe()} cancelled"
                        ),
                    )
                except ServeError as error:
                    self.counters.add("jobs_failed")
                    self._count_job("failed")
                    self._record_event(
                        f"shard-{shard.index}",
                        "job-failed",
                        key=flight.key,
                        code=error.code,
                        detail=str(error),
                    )
                    self._finish(flight, error=error)
                else:
                    self.counters.add("jobs_simulated")
                    self._count_job("simulated")
                    tel = telemetry.maybe()
                    if tel is not None:
                        tel.histogram(
                            "repro_sched_job_seconds",
                            "Worker wall seconds per simulated flight.",
                        ).observe(outcome.seconds)
                    self._record_event(
                        f"shard-{shard.index}",
                        "job-finished",
                        key=flight.key,
                        workload=flight.job.workload,
                        seconds=round(outcome.seconds, 6),
                    )
                    self._finish(flight, outcome)

    async def _run_flight(self, shard: WorkerShard, flight: Flight) -> FlightResult:
        """Execute one flight on its shard: timeout, retry, quarantine."""
        job = flight.job
        timeout = flight.timeout
        shard_name = f"shard-{shard.index}"
        trace_wire = (
            flight.span.context.as_wire() if flight.span is not None else None
        )
        attempt = 0
        while True:
            pool_future = shard.submit(job, trace_wire)
            self.counters.add("pool_dispatches")
            try:
                result, seconds, taxonomy, worker_spans = await asyncio.wait_for(
                    asyncio.wrap_future(pool_future), timeout
                )
            except asyncio.TimeoutError:
                pool_future.cancel()
                shard.restart()  # the worker is presumed wedged
                self.counters.add("jobs_timed_out")
                self._count_job("timed_out")
                self._note_restart(shard, "timeout", job)
                raise ServeError(
                    "timeout",
                    f"{job.describe()} exceeded the "
                    f"{timeout:.1f}s per-job timeout",
                ) from None
            except BrokenExecutor as error:
                shard.restart()
                attempt += 1
                if attempt > self.config.retries:
                    reason = f"worker died ({type(error).__name__})"
                    self._quarantine[job.key] = reason
                    self.counters.add("jobs_crashed")
                    self._count_job("crashed")
                    self._record_event(
                        shard_name, "job-quarantined", key=job.key, reason=reason
                    )
                    self._note_restart(shard, "worker-crash", job)
                    raise ServeError(
                        "worker-crash",
                        f"{job.describe()}: {reason} after "
                        f"{attempt} attempt(s); key quarantined",
                    ) from error
                self.counters.add("worker_retries")
                self._count_job("retried")
                self._record_event(
                    shard_name, "job-retry", key=job.key, attempt=attempt
                )
                await asyncio.sleep(self.config.backoff * (2 ** (attempt - 1)))
            except ServeError:
                raise
            except Exception as error:  # worker raised: the job itself failed
                raise ServeError(
                    "internal",
                    f"{job.describe()} failed: {type(error).__name__}: {error}",
                ) from error
            else:
                _runner._memory_cache[job.key] = result
                _runner.record_spans(worker_spans)
                return FlightResult(
                    result=result,
                    cached=False,
                    source="simulated",
                    seconds=seconds,
                    taxonomy=taxonomy,
                )

    def _note_restart(self, shard: WorkerShard, reason: str, job: SimJob) -> None:
        """Shard-restart telemetry: labeled counter, ring event, crash dump.

        Called *after* the restart on the crash/timeout paths — exactly
        the moments the flight recorder exists for, so the shard's ring
        (ending with this job's final events) is dumped to an artifact.
        """
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_sched_restarts_total",
                "Worker-shard restarts by shard and reason.",
                labels=("shard", "reason"),
            ).inc(shard=str(shard.index), reason=reason)
        shard_name = f"shard-{shard.index}"
        self._record_event(
            shard_name, "shard-restart", reason=reason, key=job.key
        )
        rec = telemetry.maybe_recorder()
        if rec is not None:
            rec.dump(shard_name, reason)

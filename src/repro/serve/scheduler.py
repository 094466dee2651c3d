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
(memory, then disk) resolve in ``submit`` itself and never touch a pool.

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

The worker entry point is the module-level :func:`_run_job_entry`
trampoline resolving :data:`_JOB_ENTRY` at call time — fault-injection
tests repoint ``_JOB_ENTRY`` and fork-started workers inherit the patch.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.analysis import runner as _runner
from repro.analysis.parallel import (
    SimJob,
    _pool_context,
    _worker_init,
    resolve_job_timeout,
)
from repro.common.stats import StatBlock
from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult, Simulator
from repro.observe import telemetry
from repro.observe.telemetry import Span, SpanContext, SpanSink
from repro.serve import eviction
from repro.serve.protocol import ServeError
from repro.workloads.suite import load_workload

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


def _default_job_entry(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    trace_wire: dict[str, Any] | None = None,
) -> tuple[SimResult, float, dict[str, Any] | None, list[dict[str, Any]]]:
    """Worker-side job body: simulate (observing) and persist to disk.

    Mirrors ``repro.analysis.parallel._execute_job`` — same cache key,
    same atomic store, so served results are interchangeable with CLI
    runs — but runs the simulator with the observer on so the stall
    taxonomy can be streamed back.  Observation is bit-identical to the
    unobserved run, so the cached entry is too.

    ``trace_wire`` is the scheduler span's :meth:`SpanContext.as_wire`
    dict.  With ``REPRO_SIM_TELEMETRY`` on (workers inherit the env) the
    worker opens ``worker.job`` / ``runner.simulate`` child spans and
    ships them back as plain dicts in the fourth tuple slot — telemetry
    objects never cross the pickle boundary, and the spans are built in
    a job-local sink so thread-mode shards cannot double-record.
    """
    start = time.perf_counter()  # lint-ok: SIM002 worker timing telemetry, never touches results
    sink: SpanSink | None = None
    job_span: Span | None = None
    if telemetry.telemetry_enabled():
        sink = SpanSink()
    if sink is not None:
        job_span = sink.start_span(
            "worker.job",
            parent=SpanContext.from_wire(trace_wire),
            attrs={"workload": workload, "pid": os.getpid()},
        )
    key = _runner.cache_key(workload, n_instructions, config)
    result = _runner._load_disk(key)
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
        sim = Simulator(spec.trace, config, name=workload, observe=True)
        result = sim.run()
        if sim.observer is not None:
            taxonomy = sim.observer.taxonomy.as_dict()
        _runner._store_disk(key, result)
        if sink is not None and sim_span is not None:
            sink.finish(sim_span, instructions=result.instructions)
    spans: list[dict[str, Any]] = []
    if sink is not None and job_span is not None:
        sink.finish(job_span, source=source)
        spans = [span.to_dict() for span in sink.drain()]
    return result, time.perf_counter() - start, taxonomy, spans  # lint-ok: SIM002 timing telemetry


#: The active worker job body.  Fault-injection tests repoint this;
#: fork-started pool workers inherit the patch.
_JOB_ENTRY = _default_job_entry


def _run_job_entry(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    trace_wire: dict[str, Any] | None = None,
) -> tuple[Any, ...]:
    """Picklable trampoline: resolves :data:`_JOB_ENTRY` in the worker.

    Patched entries (fault injectors, test doubles) keep the historical
    3-argument contract and return a 3-tuple; only the default entry
    receives the trace context and appends the span slot.  The caller
    unpacks both shapes.
    """
    entry = _JOB_ENTRY
    if entry is _default_job_entry:
        return entry(workload, config, n_instructions, trace_wire)
    return entry(workload, config, n_instructions)


def _terminate_pool(pool: Executor) -> None:
    """Tear a pool down without joining its (possibly wedged) workers.

    ``_processes`` is snapshotted *before* shutdown — the executor's
    management thread nulls it out during teardown.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


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
            if self.mode == "process":
                context = _pool_context()
                if context is None:  # no usable start method on this platform
                    self._pool = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=f"repro-shard-{self.index}"
                    )
                else:
                    self._pool = ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=context,
                        initializer=_worker_init,
                        initargs=(os.getpid(),),
                    )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-shard-{self.index}"
                )
        return self._pool

    def submit(
        self, job: SimJob, trace_wire: dict[str, Any] | None = None
    ) -> Future[tuple[Any, ...]]:
        return self.pool().submit(
            _run_job_entry, job.workload, job.config, job.n_instructions, trace_wire
        )

    def restart(self) -> None:
        """Kill this shard's worker (it may be wedged) and start fresh."""
        pool, self._pool = self._pool, None
        self.restarts += 1
        if pool is None:
            return
        _terminate_pool(pool)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            _terminate_pool(pool)


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
        result = _runner._memory_cache.get(job.key)
        if result is not None:
            return result, "memory"
        try:
            result = _runner._load_disk(job.key)
        except Exception as error:
            self.counters.add("cache_errors")
            raise ServeError(
                "cache-corrupt",
                f"cache read for {job.describe()} failed: "
                f"{type(error).__name__}: {error}",
            ) from error
        if result is not None:
            _runner._memory_cache[job.key] = result
            return result, "disk"
        return None, ""

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
                payload = await asyncio.wait_for(
                    asyncio.wrap_future(pool_future), timeout
                )
                # Patched 3-tuple entries carry no span slot (see
                # _run_job_entry); tolerate both shapes.
                result, seconds, taxonomy = payload[0], payload[1], payload[2]
                worker_spans = payload[3] if len(payload) > 3 else []
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
                sink = telemetry.maybe_spans()
                if sink is not None:
                    for span_dict in worker_spans:
                        sink.record(span_dict)
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

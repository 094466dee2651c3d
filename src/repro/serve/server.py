"""The asyncio experiment server: NDJSON over a local TCP socket.

One :class:`ExperimentServer` owns a :class:`~repro.analysis.scheduler.
Scheduler` (the engine's worker slots and queue) and listens on
localhost.  Each connection multiplexes any number of concurrent ``run``
requests; each request expands to jobs via the protocol normalizer,
submits them (single-flight across *all* connections), streams progress
events when asked, and reports per-job ``result`` / ``error`` lines as
flights resolve, closing with one ``done`` line.

Failure scoping is per request: a job that times out, crashes its
worker, or hits a corrupt cache tier produces a typed ``error`` for its
own request only — other requests (even ones sharing the connection)
keep running.  A dropped connection releases every flight the
connection still holds, so abandoned work is cancelled unless another
client shares the flight.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from typing import Any

from repro.analysis import result_cache
from repro.analysis.scheduler import Flight, Scheduler, SimJob
from repro.observe import stream as _stream
from repro.observe import telemetry
from repro.observe.telemetry.httpd import MetricsEndpoint
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    RunRequest,
    ServeError,
    decode_line,
    encode_message,
    parse_run_request,
    result_summary,
)

__all__ = ["ExperimentServer"]

#: Default queue bound of ``repro serve`` (``--max-pending``).
DEFAULT_MAX_PENDING = 1024


class _Connection:
    """Per-connection state: serialized writes, active request tasks and
    pending event sends."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.requests: dict[str, asyncio.Task[None]] = {}
        self.sends: set[asyncio.Task[None]] = set()


class ExperimentServer:
    """Serve experiment matrices over localhost NDJSON.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    scheduler:
        Bring your own (tests); default builds one from the remaining
        keyword arguments.
    shards, mode, job_timeout:
        The scheduler's worker-slot count (resolved like every engine
        worker count: explicit, then ``REPRO_SIM_JOBS``, then the CPU
        count), slot mode and per-job timeout.
    max_pending:
        Refuse new ``run`` requests (``overloaded``) while this many
        flights are already queued (default 1024).
    metrics_port:
        When not None, also bind a telemetry HTTP endpoint (``/metrics``
        Prometheus text, ``/metrics.json``, ``/healthz``) on this port
        (0 picks a free one; read it back from :attr:`metrics_port`
        after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        scheduler: Scheduler | None = None,
        shards: int | None = None,
        mode: str = "process",
        job_timeout: float | None = None,
        max_pending: int | None = None,
        metrics_port: int | None = None,
        log: Callable[[str], None] = print,
    ) -> None:
        self.host = host
        self.port = port
        self.scheduler = scheduler or Scheduler(
            shards, mode=mode, job_timeout=job_timeout
        )
        self.max_pending = (
            max_pending if max_pending and max_pending > 0 else DEFAULT_MAX_PENDING
        )
        self.metrics_port = metrics_port
        self.log = log
        self._server: asyncio.AbstractServer | None = None
        self._metrics: MetricsEndpoint | None = None
        self._connections: dict[_Connection, asyncio.Task[None]] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the scheduler and bind."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.log(f"serving on {self.host}:{self.port}")
        if self.metrics_port is not None:
            self._metrics = MetricsEndpoint(self.host, self.metrics_port)
            await self._metrics.start()
            self.metrics_port = self._metrics.port
            self.log(f"metrics on http://{self.host}:{self.metrics_port}/metrics")

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._metrics is not None:
            await self._metrics.close()
            self._metrics = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Hang up on every client (their handlers see EOF and exit on
        # their own — cancelling them trips asyncio's stream-task
        # done-callback into logging spurious CancelledErrors).
        for conn in list(self._connections):
            conn.writer.close()
        if self._connections:
            await asyncio.gather(
                *self._connections.values(), return_exceptions=True
            )
        await self.scheduler.close()

    # -- connection handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections[conn] = task
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._send(
                        conn,
                        ServeError(
                            "bad-request", f"line exceeds {MAX_LINE_BYTES} bytes"
                        ).as_message(),
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._handle_line(conn, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(conn, None)
            # The client is gone: drop its interest in every flight.
            for request_task in list(conn.requests.values()):
                request_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            message = decode_line(line)
        except ServeError as error:
            await self._send(conn, error.as_message())
            return
        kind = message.get("type")
        request_id = message.get("id")
        rid = request_id if isinstance(request_id, str) else None
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_serve_requests_total",
                "Protocol messages received, by verb.",
                labels=("verb",),
            ).inc(verb=kind if isinstance(kind, str) else "invalid")
        if kind == "ping":
            await self._send(conn, {"type": "pong", "protocol": PROTOCOL_VERSION})
        elif kind == "status":
            # The cache summary scans the cache directory on disk; hop it
            # to a worker thread so a cold or large cache cannot stall
            # every other connection.
            cache = await asyncio.to_thread(result_cache.cache_stats)
            await self._send(conn, self._status_message(cache))
        elif kind == "cancel":
            task = conn.requests.get(rid) if rid is not None else None
            if task is None:
                await self._send(
                    conn,
                    ServeError(
                        "bad-request", f"no active request {rid!r} to cancel"
                    ).as_message(rid),
                )
            else:
                task.cancel()
        elif kind == "run":
            try:
                request = parse_run_request(message)
            except ServeError as error:
                await self._send(conn, error.as_message(rid))
                return
            if request.id in conn.requests:
                await self._send(
                    conn,
                    ServeError(
                        "bad-request", f"request id {request.id!r} already active"
                    ).as_message(request.id),
                )
                return
            task = asyncio.create_task(
                self._handle_run(conn, request), name=f"run-{request.id}"
            )
            conn.requests[request.id] = task
            task.add_done_callback(
                lambda _t, rid=request.id: conn.requests.pop(rid, None)
            )
        else:
            await self._send(
                conn,
                ServeError(
                    "bad-request", f"unknown message type {kind!r}"
                ).as_message(rid),
            )

    def _status_message(self, cache: dict[str, Any]) -> dict[str, Any]:
        tel = telemetry.maybe()
        return {
            "type": "status",
            "protocol": PROTOCOL_VERSION,
            "scheduler": self.scheduler.stats(),
            "cache": cache,
            "max_pending": self.max_pending,
            # None when REPRO_SIM_TELEMETRY is off; else the full metrics
            # registry snapshot (what `repro top` renders).
            "telemetry": None if tel is None else tel.snapshot(),
        }

    # -- request handling ---------------------------------------------------

    async def _handle_run(self, conn: _Connection, request: RunRequest) -> None:
        flights: list[tuple[SimJob, Flight]] = []
        subscriptions: list[tuple[Flight, Any]] = []
        sink = telemetry.maybe_spans()
        request_span = (
            sink.start_span(
                "serve.request",
                parent=request.trace,
                attrs={"id": request.id, "jobs": len(request.jobs)},
            )
            if sink is not None
            else None
        )
        try:
            queued = self.scheduler.queued
            if queued >= self.max_pending:
                raise ServeError(
                    "overloaded",
                    f"{queued} flights already queued (bound {self.max_pending})",
                )
            for job in request.jobs:
                # submit() probes the disk cache for the single job key
                # before dispatching — a bounded read the serve design
                # accepts on-loop (docs/SERVICE.md); everything heavier
                # already runs in the worker pool.
                flight = self.scheduler.submit(
                    job,
                    observe=request.stream,
                    priority=request.priority,
                    timeout=request.timeout,
                    trace=None if request_span is None else request_span.context,
                )
                flights.append((job, flight))
            if request.stream:
                for _job, flight in flights:
                    callback = self._subscribe(conn, request.id, flight)
                    subscriptions.append((flight, callback))
            accepted = {"type": "accepted", "id": request.id, "protocol": PROTOCOL_VERSION}
            lines: list[dict[str, Any]] = [accepted | {"jobs": len(flights)}]
            statuses: list[str] = []
            waiting = flights
            while True:
                # One pass: every line ready goes out in one write, then
                # wait for the next flight (asyncio.wait cancels none).
                pending = waiting
                waiting = []
                for job, flight in pending:
                    if flight.future.done():
                        statuses.append(self._job_lines(lines, request, job, flight))
                    else:
                        waiting.append((job, flight))
                if not waiting:
                    counts = ("cached", "simulated", "failed")
                    lines.append(
                        {"type": "done", "id": request.id, "jobs": len(statuses)}
                        | {status: statuses.count(status) for status in counts}
                    )
                await self._send(conn, *lines)
                if not waiting:
                    break
                lines = []
                await asyncio.wait(
                    [flight.future for _job, flight in waiting],
                    return_when=asyncio.FIRST_COMPLETED,
                )
        except asyncio.CancelledError:
            await self._send(
                conn,
                ServeError(
                    "cancelled", f"request {request.id} cancelled"
                ).as_message(request.id),
            )
        except ServeError as error:
            await self._send(conn, error.as_message(request.id))
        except (ConnectionError, OSError):
            pass  # the client is gone; the finally block cleans up
        finally:
            if request_span is not None and sink is not None:
                sink.finish(request_span)
            for flight, callback in subscriptions:
                if callback in flight.subscribers:
                    flight.subscribers.remove(callback)
            for _job, flight in flights:
                self.scheduler.release(flight)

    def _subscribe(
        self, conn: _Connection, request_id: str, flight: Flight
    ) -> Callable[[dict[str, Any]], None]:
        """Forward a flight's progress events to this request's stream."""

        def callback(event: dict[str, Any]) -> None:
            message = {"type": "event", "id": request_id, **event}
            # The loop holds tasks only weakly: keep each send alive.
            task = asyncio.get_running_loop().create_task(self._send(conn, message))
            conn.sends.add(task)
            task.add_done_callback(conn.sends.discard)

        flight.subscribers.append(callback)
        return callback

    @staticmethod
    def _job_lines(
        lines: list[dict[str, Any]], request: RunRequest, job: SimJob, flight: Flight
    ) -> str:
        """Append one resolved flight's lines; return its ``done`` status."""
        try:
            outcome = flight.future.result()
        except ServeError as error:
            message = error.as_message(request.id)
            message["key"] = job.key
            message["workload"] = job.workload
            lines.append(message)
            return "failed"
        if request.stream:
            name = job.workload
            events = [
                _stream.job_finished_event(job.key, name, outcome.cached, outcome.seconds),
                *_stream.interval_events(job.key, name, outcome.result.intervals),
            ]
            if outcome.taxonomy is not None:
                events.append(_stream.taxonomy_event(job.key, name, outcome.taxonomy))
            lines.extend({"type": "event", "id": request.id, **event} for event in events)
        summary = result_summary(job, outcome.result, outcome.cached)
        summary["source"] = outcome.source
        summary["seconds"] = round(outcome.seconds, 4)
        lines.append({"type": "result", "id": request.id, **summary})
        return "cached" if outcome.cached else "simulated"

    # -- plumbing -----------------------------------------------------------

    async def _send(self, conn: _Connection, *messages: dict[str, Any]) -> None:
        """Write ``messages`` to the connection in one write and one drain."""
        data = b"".join(map(encode_message, messages))
        try:
            async with conn.lock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, OSError):
            pass  # client gone; request teardown happens in _handle_client

"""Async client for the experiment server.

:class:`ServeClient` opens one connection and multiplexes requests over
it: a background pump routes incoming lines to the request that owns
them by echoed ``id``.  :meth:`ServeClient.run` is the high-level call —
send a matrix, collect streamed events (via callback), per-job results
and per-job errors, and return a :class:`RunReply` when the server's
``done`` line arrives.  Request-scoped failures (``overloaded``,
``cancelled``, ``bad-request`` …) raise :class:`ServeRequestError`.

Example
-------
>>> async with ServeClient(port=port) as client:
...     reply = await client.run(["fp_01"], configs=[{"ucp": True}])
...     reply.results[0]["ipc"]
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.observe import telemetry
from repro.serve.protocol import decode_line, encode_message

__all__ = ["RunReply", "ServeClient", "ServeRequestError"]


class ServeRequestError(Exception):
    """A request failed as a whole; ``code`` is the protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


@dataclass
class RunReply:
    """Everything one ``run`` request produced."""

    request_id: str
    results: list[dict[str, Any]] = field(default_factory=list)
    errors: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    done: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def result_for(self, workload: str) -> dict[str, Any] | None:
        for record in self.results:
            if record.get("workload") == workload:
                return record
        return None


class ServeClient:
    """One NDJSON connection to an :class:`~repro.serve.server.
    ExperimentServer`; safe for concurrent requests from many tasks."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pump_task: asyncio.Task[None] | None = None
        self._pending: dict[str, asyncio.Queue[dict[str, Any] | None]] = {}
        self._control: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()
        self._control_lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._pump_task = asyncio.create_task(self._pump(), name="serve-client-pump")
        return self

    async def aclose(self) -> None:
        self._closed = True
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # -- requests -----------------------------------------------------------

    async def run(
        self,
        workloads: list[str],
        *,
        configs: list[dict[str, Any]] | None = None,
        n_instructions: int | None = None,
        priority: int = 0,
        timeout: float | None = None,
        stream: bool = False,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        request_id: str | None = None,
    ) -> RunReply:
        """Run one experiment matrix to completion.

        Per-job failures land in ``reply.errors`` (the rest of the matrix
        still completes); request-scoped failures raise
        :class:`ServeRequestError`.

        With ``REPRO_SIM_TELEMETRY`` on, the request opens a
        ``client.run`` root span and propagates its context in the
        protocol ``trace`` field, so the served job is traceable
        client → server → slot → worker as one connected span tree.
        """
        rid = request_id if request_id is not None else f"r{next(self._ids)}"
        matrix: dict[str, Any] = {"workloads": list(workloads)}
        if configs is not None:
            matrix["configs"] = configs
        if n_instructions is not None:
            matrix["n_instructions"] = n_instructions
        message: dict[str, Any] = {
            "type": "run",
            "id": rid,
            "matrix": matrix,
            "priority": priority,
            "stream": stream,
        }
        if timeout is not None:
            message["timeout"] = timeout
        sink = telemetry.maybe_spans()
        root_span = (
            sink.start_span(
                "client.run", attrs={"id": rid, "workloads": list(workloads)}
            )
            if sink is not None
            else None
        )
        if root_span is not None:
            message["trace"] = root_span.context.as_wire()
        queue: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()
        self._pending[rid] = queue
        reply = RunReply(request_id=rid)
        try:
            await self._write(message)
            while True:
                received = await queue.get()
                if received is None:
                    raise ServeRequestError(
                        "internal", "connection closed mid-request"
                    )
                kind = received.get("type")
                if kind == "accepted":
                    continue
                if kind == "event":
                    reply.events.append(received)
                    if on_event is not None:
                        on_event(received)
                    continue
                if kind == "result":
                    reply.results.append(received)
                    continue
                if kind == "error":
                    if "key" in received:
                        reply.errors.append(received)  # job-scoped
                        continue
                    raise ServeRequestError(
                        str(received.get("code", "internal")),
                        str(received.get("message", "request failed")),
                    )
                if kind == "done":
                    reply.done = received
                    return reply
        finally:
            if root_span is not None and sink is not None:
                sink.finish(
                    root_span,
                    results=len(reply.results),
                    errors=len(reply.errors),
                )
            self._pending.pop(rid, None)

    async def cancel(self, request_id: str) -> None:
        """Ask the server to cancel an in-flight request by id."""
        await self._write({"type": "cancel", "id": request_id})

    async def ping(self) -> dict[str, Any]:
        return await self._control_request({"type": "ping"})

    async def status(self) -> dict[str, Any]:
        return await self._control_request({"type": "status"})

    # -- internals ----------------------------------------------------------

    async def _control_request(self, message: dict[str, Any]) -> dict[str, Any]:
        async with self._control_lock:
            await self._write(message)
            received = await self._control.get()
            if received is None:
                raise ServeRequestError("internal", "connection closed")
            return received

    async def _write(self, message: dict[str, Any]) -> None:
        if self._writer is None:
            raise ServeRequestError("internal", "client is not connected")
        self._writer.write(encode_message(message))
        await self._writer.drain()

    async def _pump(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = decode_line(line)
                except Exception:
                    continue  # a malformed server line; keep pumping
                rid = message.get("id")
                queue = (
                    self._pending.get(rid) if isinstance(rid, str) else None
                )
                if queue is not None:
                    queue.put_nowait(message)
                else:
                    self._control.put_nowait(message)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Wake every waiter: the connection is gone.
            for queue in self._pending.values():
                queue.put_nowait(None)
            self._control.put_nowait(None)

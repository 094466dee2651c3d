"""The experiment-server wire protocol: NDJSON messages, typed errors.

One JSON object per ``\\n``-terminated line, both directions.  Client
messages carry a ``type`` (``run``, ``cancel``, ``status``, ``ping``) and
— for ``run`` — a client-chosen request ``id`` that every server message
about that request echoes back, so one connection can multiplex many
requests.

A ``run`` request names an experiment matrix::

    {"type": "run", "id": "r1", "priority": 5, "stream": true,
     "matrix": {"workloads": ["fp_01", "int_02"],
                "configs": [{}, {"ucp": true}],
                "n_instructions": 20000}}

The matrix is normalized through :func:`repro.core.configs.
config_from_spec` — the same normalizer behind the CLI flags — and
expanded to the cross product of workloads × configs as
:class:`~repro.analysis.scheduler.SimJob` instances, so a served request
and a CLI run spelling the same experiment share exactly the same result
cache keys.

Server messages: ``accepted``, ``event`` (progress stream, see
:mod:`repro.observe.stream`), ``result``, ``error`` (with a typed
``code`` from :data:`ERROR_CODES`), ``status`` and ``pong``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.analysis.scheduler import ERROR_CODES, JobError, SimJob
from repro.core.configs import config_from_spec
from repro.core.pipeline import SimResult
from repro.isa import TraceFormatError
from repro.observe.telemetry import SpanContext
from repro.workloads import SUITE, IngestedWorkload, cache_token, ingested_entries

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "RunRequest",
    "ServeError",
    "decode_line",
    "encode_message",
    "expand_matrix",
    "parse_run_request",
    "result_summary",
]

#: Wire protocol version, echoed in ``accepted`` and ``status`` messages.
#: v2: ``run`` accepts an optional ``trace`` field (``{"trace_id",
#: "span_id"}``) propagating the client's span context through the
#: scheduler and workers, and ``status`` replies carry a ``telemetry``
#: snapshot when ``REPRO_SIM_TELEMETRY`` is on.  Both are additive:
#: v1 clients interoperate unchanged.
PROTOCOL_VERSION = 2

#: Hard cap on one NDJSON line (requests are small; results are summaries).
MAX_LINE_BYTES = 1 << 20

#: The one typed failure of a job or request, shared with the engine: it
#: maps onto one protocol ``error`` line with a code from
#: :data:`ERROR_CODES`.
ServeError = JobError


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps builds one per call


def encode_message(message: dict[str, Any]) -> bytes:
    """One protocol message as an NDJSON line (compact separators)."""
    return (_ENCODER.encode(message) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received line; raises ``ServeError('bad-request')``."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeError("bad-request", f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ServeError("bad-request", f"unparsable message: {error}") from error
    if not isinstance(message, dict):
        raise ServeError("bad-request", "message must be a JSON object")
    return message


def expand_matrix(matrix: object) -> list[SimJob]:
    """Normalize one experiment matrix to its deduplicated job list.

    ``matrix`` must be ``{"workloads": [...], "configs": [spec, ...],
    "n_instructions": N}`` (``configs`` optional, default one baseline
    config; ``n_instructions`` optional, default 40 000 — the engine's
    default).  Jobs are the workloads × configs cross product; duplicate
    cache keys are folded here so a request's job list is already
    single-flight within itself.
    """
    if not isinstance(matrix, dict):
        raise ServeError("bad-request", "matrix must be a JSON object")
    unknown = set(matrix) - {"workloads", "configs", "n_instructions"}
    if unknown:
        raise ServeError(
            "bad-request", f"unknown matrix key(s): {', '.join(sorted(unknown))}"
        )
    workloads = matrix.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise ServeError("bad-request", "matrix.workloads must be a non-empty list")
    for name in workloads:
        if not isinstance(name, str):
            raise ServeError("bad-request", f"workload name {name!r} is not a string")
    # Names outside the suite are checked, and keyed, against one
    # manifest read.
    outside = [name for name in workloads if name not in SUITE]
    ingested: dict[str, IngestedWorkload] = {}
    if outside:
        try:
            ingested = ingested_entries()
        except TraceFormatError:
            pass
        for name in outside:
            if name not in ingested:
                raise ServeError("unknown-workload", f"unknown workload {name!r}")
    tokens = {name: cache_token(name, ingested) for name in workloads}
    specs = matrix.get("configs", [{}])
    if not isinstance(specs, list) or not specs:
        raise ServeError("bad-request", "matrix.configs must be a non-empty list")
    n_instructions = matrix.get("n_instructions", 40_000)
    if (
        isinstance(n_instructions, bool)
        or not isinstance(n_instructions, int)
        or n_instructions <= 0
    ):
        raise ServeError(
            "bad-request", "matrix.n_instructions must be a positive integer"
        )
    jobs: dict[str, SimJob] = {}
    for spec in specs:
        if not isinstance(spec, dict):
            raise ServeError("bad-request", "matrix.configs entries must be objects")
        try:
            config = config_from_spec(spec)
        except ValueError as error:
            raise ServeError("bad-request", str(error)) from error
        for name in workloads:
            job = SimJob(name, config, n_instructions, tokens[name])
            jobs.setdefault(job.key, job)
    return list(jobs.values())


@dataclass(frozen=True)
class RunRequest:
    """One parsed, validated ``run`` message."""

    id: str
    jobs: tuple[SimJob, ...]
    priority: int = 0
    timeout: float | None = None
    stream: bool = False
    trace: SpanContext | None = None


def parse_run_request(message: dict[str, Any]) -> RunRequest:
    """Validate a ``run`` message; raises :class:`ServeError` on misuse."""
    unknown = set(message) - {
        "type",
        "id",
        "matrix",
        "priority",
        "timeout",
        "stream",
        "trace",
    }
    if unknown:
        raise ServeError(
            "bad-request", f"unknown run field(s): {', '.join(sorted(unknown))}"
        )
    request_id = message.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ServeError("bad-request", "run.id must be a non-empty string")
    priority = message.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ServeError("bad-request", "run.priority must be an integer")
    timeout = message.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ServeError("bad-request", "run.timeout must be a number")
        if timeout <= 0:
            raise ServeError("bad-request", "run.timeout must be positive")
    stream = message.get("stream", False)
    if not isinstance(stream, bool):
        raise ServeError("bad-request", "run.stream must be a boolean")
    trace_wire = message.get("trace")
    trace: SpanContext | None = None
    if trace_wire is not None:
        trace = SpanContext.from_wire(trace_wire)
        if trace is None:
            raise ServeError(
                "bad-request",
                "run.trace must be {trace_id, span_id} (non-empty strings)",
            )
    jobs = expand_matrix(message.get("matrix"))
    return RunRequest(
        id=request_id,
        jobs=tuple(jobs),
        priority=priority,
        timeout=None if timeout is None else float(timeout),
        stream=stream,
        trace=trace,
    )


def result_summary(job: SimJob, result: SimResult, cached: bool) -> dict[str, Any]:
    """The per-job summary a ``result`` message carries."""
    return {
        "workload": job.workload,
        "key": job.key,
        "n_instructions": job.n_instructions,
        "cached": cached,
        "ipc": round(result.ipc, 6),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "uop_hit_rate": round(result.uop_hit_rate, 4),
        "cond_mpki": round(result.cond_mpki, 4),
        "switch_pki": round(result.switch_pki, 4),
        "prefetch_accuracy": round(result.prefetch_accuracy, 4),
    }

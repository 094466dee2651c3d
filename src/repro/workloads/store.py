"""The ingested-trace store: imported traces as first-class workloads.

``repro ingest convert`` normalises a real trace (ChampSim/CVP-1/RISC-V/
text) and registers it here; from that point the name behaves exactly
like a built-in suite entry — ``repro simulate NAME``, experiment
matrices, the result cache, and the serve path all resolve it through
:func:`repro.workloads.suite.load_workload`.

Layout (``REPRO_TRACE_DIR``, default ``.simtraces/``)::

    <dir>/manifest.json      {"schema": 1, "traces": {name: {...meta}}}
    <dir>/<name>.npz         canonical columnar Trace

Two integrity properties the rest of the system depends on:

* **Content-addressed cache identity.**  Every entry records a digest of
  the canonical trace *columns* (not the npz bytes, which are
  compression-dependent).  :func:`cache_token` folds that digest into
  the simulation result-cache key, so re-converting a *different* trace
  under the same name can never resurrect stale cached results, while
  identical conversions share the cache across CLI, engine, and serve
  paths.
* **Verified loads.**  :func:`load_ingested` recomputes the column
  digest and refuses a store whose npz no longer matches its manifest
  entry (bit-rot, partial writes, hand-edits) with a typed
  :class:`~repro.isa.errors.TraceFormatError`.

Manifest writes are atomic (temp file + ``os.replace``), mirroring the
result cache's hardening.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.isa.errors import TraceFormatError
from repro.isa.trace import Trace
from repro.workloads.suite import SUITE

__all__ = [
    "IngestedWorkload",
    "cache_token",
    "ingest_trace",
    "ingested_entries",
    "ingested_names",
    "is_ingested",
    "load_ingested",
    "resolve_meta",
    "store_dir",
]

#: Manifest format version.
STORE_SCHEMA = 1


def store_dir() -> Path:
    """The trace-store directory, resolved from the environment at call
    time (like the result cache's ``REPRO_SIM_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_TRACE_DIR", ".simtraces"))


@dataclass(frozen=True)
class IngestedWorkload:
    """Manifest entry for one ingested trace (the workload's "config")."""

    name: str
    digest: str
    instructions: int
    source_format: str
    source_path: str

    def as_dict(self) -> dict[str, object]:
        return {
            "digest": self.digest,
            "instructions": self.instructions,
            "source_format": self.source_format,
            "source_path": self.source_path,
        }


def trace_digest(trace: Trace) -> str:
    """Content digest over the canonical columns (compression-independent)."""
    digest = hashlib.sha256()
    digest.update(len(trace).to_bytes(8, "little"))
    digest.update(trace.pcs.tobytes())
    digest.update(trace.branch_classes.tobytes())
    digest.update(trace.takens.tobytes())
    digest.update(trace.targets.tobytes())
    return digest.hexdigest()


def _manifest_path(directory: Path | None = None) -> Path:
    return (directory if directory is not None else store_dir()) / "manifest.json"


def _read_manifest(directory: Path | None = None) -> dict[str, IngestedWorkload]:
    path = _manifest_path(directory)
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise TraceFormatError(
            f"corrupt trace-store manifest: {error}", path=str(path)
        ) from error
    if not isinstance(data, dict) or data.get("schema") != STORE_SCHEMA:
        raise TraceFormatError(
            f"trace-store manifest has unsupported schema "
            f"(expected {STORE_SCHEMA})",
            path=str(path),
        )
    traces = data.get("traces")
    if not isinstance(traces, dict):
        raise TraceFormatError("trace-store manifest missing 'traces'", path=str(path))
    entries: dict[str, IngestedWorkload] = {}
    for name, meta in traces.items():
        if not isinstance(meta, dict):
            raise TraceFormatError(
                f"trace-store manifest entry {name!r} is not an object",
                path=str(path),
            )
        try:
            entries[str(name)] = IngestedWorkload(
                name=str(name),
                digest=str(meta["digest"]),
                instructions=int(meta["instructions"]),
                source_format=str(meta["source_format"]),
                source_path=str(meta.get("source_path", "")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(
                f"trace-store manifest entry {name!r} is malformed: {error}",
                path=str(path),
            ) from error
    return entries


def _write_manifest(
    entries: dict[str, IngestedWorkload], directory: Path | None = None
) -> None:
    directory = directory if directory is not None else store_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": STORE_SCHEMA,
        "traces": {name: entries[name].as_dict() for name in sorted(entries)},
    }
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".manifest.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp_name, _manifest_path(directory))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _trace_path(name: str, directory: Path | None = None) -> Path:
    return (directory if directory is not None else store_dir()) / f"{name}.npz"


def _validate_name(name: str) -> None:
    if not name or not all(
        ch.isascii() and (ch.isalnum() or ch in "_-") for ch in name
    ):
        raise ValueError(
            f"invalid ingested-trace name {name!r}: use letters, digits, "
            f"'_' and '-'"
        )


def ingest_trace(
    trace: Trace,
    name: str,
    source_format: str,
    source_path: str = "",
    overwrite: bool = True,
) -> IngestedWorkload:
    """Register a canonical trace in the store under ``name``.

    The trace must already be normalised (``validate()`` is enforced
    here — the store only ever holds simulator-ready streams).
    """
    _validate_name(name)
    if name in SUITE:
        raise ValueError(
            f"name {name!r} shadows a built-in suite workload; pick another"
        )
    trace.validate()
    entries = _read_manifest()
    if name in entries and not overwrite:
        raise ValueError(f"ingested trace {name!r} already exists")
    directory = store_dir()
    directory.mkdir(parents=True, exist_ok=True)
    stored = Trace(
        name, trace.pcs, trace.branch_classes, trace.takens, trace.targets
    )
    stored.save(_trace_path(name, directory))
    meta = IngestedWorkload(
        name=name,
        digest=trace_digest(stored),
        instructions=len(stored),
        source_format=source_format,
        source_path=source_path,
    )
    entries[name] = meta
    _write_manifest(entries, directory)
    return meta


def ingested_entries() -> dict[str, IngestedWorkload]:
    """Every registered ingested trace's manifest entry, by name (one
    manifest read, e.g. to key a whole matrix with :func:`cache_token`)."""
    return _read_manifest()


def ingested_names() -> list[str]:
    """Sorted names of every registered ingested trace."""
    return sorted(_read_manifest())


def is_ingested(name: str) -> bool:
    try:
        return name in _read_manifest()
    except TraceFormatError:
        return False


def resolve_meta(name: str) -> IngestedWorkload | None:
    """Manifest entry for ``name``, or ``None`` when not registered."""
    return _read_manifest().get(name)


def cache_token(
    name: str, entries: Mapping[str, IngestedWorkload] | None = None
) -> str:
    """Result-cache identity for workload ``name``.

    Built-in suite workloads are identified by name alone (their traces
    are deterministic functions of the committed generator), without
    reading the manifest: :func:`ingest_trace` refuses suite names and
    :func:`~repro.workloads.suite.load_workload` resolves the suite first.
    Ingested traces append the content digest, so the cache key tracks the
    actual trace bytes.  ``entries`` is a manifest the caller has already
    read (:func:`ingested_entries`); without it the manifest is read here.
    """
    if name in SUITE:
        return name
    meta = (entries if entries is not None else _read_manifest()).get(name)
    if meta is None:
        return name
    return f"{name}@{meta.digest[:16]}"


def load_ingested(name: str, n_instructions: int | None = None) -> Trace:
    """Load (a prefix of) an ingested trace, verifying its content digest.

    ``n_instructions`` longer than the stored trace clamps to the full
    length — real traces are finite, unlike the synthetic generators.
    """
    meta = resolve_meta(name)
    if meta is None:
        raise KeyError(
            f"unknown ingested trace {name!r}; registered: {ingested_names()}"
        )
    path = _trace_path(name)
    if not path.exists():
        raise TraceFormatError(
            f"trace {name!r} is in the manifest but its npz is missing",
            path=str(path),
        )
    try:
        trace = Trace.load(path)
    except Exception as error:
        raise TraceFormatError(
            f"corrupt stored trace: {error}", path=str(path)
        ) from error
    if trace_digest(trace) != meta.digest:
        raise TraceFormatError(
            f"stored trace {name!r} does not match its manifest digest "
            f"(store corrupted; re-run `repro ingest convert`)",
            path=str(path),
        )
    if n_instructions is None or n_instructions >= len(trace):
        return trace
    return Trace(
        trace.name,
        trace.pcs[:n_instructions],
        trace.branch_classes[:n_instructions],
        trace.takens[:n_instructions],
        trace.targets[:n_instructions],
    )

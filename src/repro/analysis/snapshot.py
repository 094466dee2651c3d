"""Warm-start index snapshot for the result cache.

A server restart should not pay a full directory rescan (thousands of
``stat`` calls on a production-sized cache) just to know what it has.
:func:`write_snapshot` persists the entry index — ``key -> (size,
mtime)`` — as one JSON file inside the cache directory, written with the
same temp-file + ``os.replace`` discipline as the entries themselves;
:func:`read_snapshot` loads it back with one file read.

The snapshot is advisory: it carries the ``CACHE_VERSION`` it was taken
under and a schema version, and anything stale, unparsable or
version-mismatched reads as "no snapshot" (callers fall back to
:func:`repro.analysis.eviction.scan_entries`).  Entries that vanish after
the snapshot was taken are discovered lazily by the envelope check on
load, exactly as before.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.analysis import runner as _runner
from repro.analysis.eviction import CacheEntry, scan_entries

__all__ = [
    "SNAPSHOT_FILE",
    "SNAPSHOT_SCHEMA",
    "load_index",
    "read_snapshot",
    "snapshot_path",
    "write_snapshot",
]

#: Snapshot filename inside the cache directory.  Not ``*.pkl``, so entry
#: scans, eviction and ``repro cache clear`` never mistake it for data.
SNAPSHOT_FILE = "cache-index.json"

#: Bump when the snapshot layout changes; mismatches read as "no snapshot".
SNAPSHOT_SCHEMA = 1


def snapshot_path(directory: Path | None = None) -> Path:
    if directory is None:
        directory = _runner._cache_dir()
    return directory / SNAPSHOT_FILE


def write_snapshot(directory: Path | None = None) -> Path:
    """Scan the cache directory and atomically persist its index."""
    if directory is None:
        directory = _runner._cache_dir()
    entries = scan_entries(directory)
    payload = {
        "schema": SNAPSHOT_SCHEMA,
        "cache_version": _runner.CACHE_VERSION,
        "entries": {
            entry.key: {"bytes": entry.size, "mtime": entry.mtime}
            for entry in entries
        },
    }
    directory.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(directory)
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{SNAPSHOT_FILE}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def read_snapshot(directory: Path | None = None) -> dict[str, CacheEntry] | None:
    """Load the index with one file read; None when absent or unusable."""
    if directory is None:
        directory = _runner._cache_dir()
    path = snapshot_path(directory)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        return None
    if payload.get("cache_version") != _runner.CACHE_VERSION:
        return None
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        return None
    index: dict[str, CacheEntry] = {}
    for key, meta in entries.items():
        if not isinstance(meta, dict):
            return None
        size = meta.get("bytes")
        mtime = meta.get("mtime")
        if not isinstance(size, int) or not isinstance(mtime, (int, float)):
            return None
        index[str(key)] = CacheEntry(
            key=str(key),
            path=directory / f"{key}.pkl",
            size=size,
            mtime=float(mtime),
        )
    return index


def load_index(
    directory: Path | None = None,
) -> tuple[dict[str, CacheEntry], str]:
    """The warm-start entry point: ``(index, source)``.

    Returns the snapshot when one is valid (``source == "snapshot"``, one
    file read); otherwise rescans the directory and writes a fresh
    snapshot so the *next* start is warm (``source == "rescan"``).
    """
    index = read_snapshot(directory)
    if index is not None:
        return index, "snapshot"
    entries = {entry.key: entry for entry in scan_entries(directory)}
    try:
        write_snapshot(directory)
    except OSError:
        pass  # warm start is an optimisation, never a requirement
    return entries, "rescan"

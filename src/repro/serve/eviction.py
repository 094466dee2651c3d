"""Byte/entry-bounded LRU eviction for the on-disk result cache.

A one-shot CLI run can let ``.simcache/`` grow without bound; a
long-running experiment server cannot.  This module gives the cache a
lifecycle:

* :func:`scan_entries` — one consistent view of the cache directory (the
  same scan ``repro cache stats`` reports and the bounds enforce);
* :func:`prune` — evict least-recently-used entries (by mtime, the cheap
  proxy both readers and writers refresh) until the cache fits a byte
  and/or entry bound;
* :func:`maybe_evict` — the automatic hook :func:`repro.analysis.runner.
  _store_disk` calls after every write when ``REPRO_SIM_CACHE_MAX_BYTES``
  or ``REPRO_SIM_CACHE_MAX_ENTRIES`` is set.

Two protections keep eviction safe under concurrency:

* **in-flight registry** — the server registers keys it is currently
  simulating or serving (:func:`protect` / :func:`unprotect`); those keys
  are never evicted, in any process that shares the registry;
* **write grace window** — entries younger than ``min_age_seconds`` are
  never evicted, which protects just-written entries from *other*
  processes (workers, concurrent servers) whose registries this process
  cannot see.

Eviction is best-effort: a concurrently deleted file is not an error, and
the atomic-write discipline in ``runner.py`` means removing an entry can
never corrupt a reader — at worst the key re-simulates.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import runner as _runner

__all__ = [
    "CacheEntry",
    "PruneReport",
    "DEFAULT_GRACE_SECONDS",
    "maybe_evict",
    "protect",
    "protected_keys",
    "prune",
    "resolve_max_bytes",
    "resolve_max_entries",
    "scan_entries",
    "unprotect",
]

#: Entries younger than this many seconds are never auto-evicted: a
#: just-written entry must survive long enough for its writer (possibly a
#: worker in another process) to read it back and merge it.
DEFAULT_GRACE_SECONDS = 30.0

#: Keys currently in flight somewhere in this process (jobs of requests
#: being served).  Guarded by :data:`_protect_lock`.
_PROTECTED: dict[str, int] = {}
_protect_lock = threading.Lock()


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry as the eviction policy sees it."""

    key: str
    path: Path
    size: int
    mtime: float


@dataclass(frozen=True)
class PruneReport:
    """What one :func:`prune` pass did (or, dry-run, would do)."""

    scanned: int
    removed: tuple[str, ...]
    freed_bytes: int
    kept_entries: int
    kept_bytes: int
    protected_kept: int
    dry_run: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "scanned": self.scanned,
            "removed": list(self.removed),
            "freed_bytes": self.freed_bytes,
            "kept_entries": self.kept_entries,
            "kept_bytes": self.kept_bytes,
            "protected_kept": self.protected_kept,
            "dry_run": self.dry_run,
        }

    def render(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (
            f"{verb} {len(self.removed)} of {self.scanned} entries "
            f"({self.freed_bytes} bytes freed, {self.kept_entries} entries / "
            f"{self.kept_bytes} bytes kept, {self.protected_kept} protected)"
        )


def protect(key: str) -> None:
    """Register ``key`` as in flight: it will not be evicted until
    :func:`unprotect` balances this call (calls nest)."""
    # The lock is shared with pool worker threads (prune / protected_keys
    # run off-loop), so asyncio.Lock cannot replace it; the critical
    # section is a single dict update — microseconds, unconditionally.
    with _protect_lock:
        _PROTECTED[key] = _PROTECTED.get(key, 0) + 1


def unprotect(key: str) -> None:
    """Release one :func:`protect` registration of ``key``."""
    with _protect_lock:
        count = _PROTECTED.get(key, 0) - 1
        if count <= 0:
            _PROTECTED.pop(key, None)
        else:
            _PROTECTED[key] = count


def protected_keys() -> frozenset[str]:
    """Snapshot of the in-flight key registry."""
    with _protect_lock:
        return frozenset(_PROTECTED)


def _parse_positive_int(raw: str | None) -> int | None:
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def resolve_max_bytes(max_bytes: int | None = None) -> int | None:
    """Byte bound: explicit arg > ``REPRO_SIM_CACHE_MAX_BYTES`` > None."""
    if max_bytes is not None:
        return max_bytes if max_bytes > 0 else None
    return _parse_positive_int(os.environ.get("REPRO_SIM_CACHE_MAX_BYTES"))


def resolve_max_entries(max_entries: int | None = None) -> int | None:
    """Entry bound: explicit arg > ``REPRO_SIM_CACHE_MAX_ENTRIES`` > None."""
    if max_entries is not None:
        return max_entries if max_entries > 0 else None
    return _parse_positive_int(os.environ.get("REPRO_SIM_CACHE_MAX_ENTRIES"))


def scan_entries(directory: Path | None = None) -> list[CacheEntry]:
    """Every cache entry under ``directory`` (default: the active cache
    dir), tolerant of files deleted mid-scan.  Sorted by key for a stable
    view; eviction re-sorts by recency."""
    if directory is None:
        directory = _runner._cache_dir()
    if not directory.exists():
        return []
    entries: list[CacheEntry] = []
    for path in sorted(directory.glob("*.pkl")):
        try:
            stat = path.stat()
        except OSError:
            continue  # evicted or replaced by a concurrent process
        entries.append(
            CacheEntry(
                key=path.stem, path=path, size=stat.st_size, mtime=stat.st_mtime
            )
        )
    return entries


def prune(
    max_bytes: int | None = None,
    max_entries: int | None = None,
    *,
    protect_keys: Iterable[str] = (),
    min_age_seconds: float = 0.0,
    directory: Path | None = None,
    dry_run: bool = False,
) -> PruneReport:
    """Evict LRU entries until the cache fits the given bounds.

    Entries are removed oldest-mtime-first, skipping any key in
    ``protect_keys`` or the process-wide in-flight registry, and any entry
    younger than ``min_age_seconds``.  Bounds of ``None`` mean
    "unbounded" on that axis; with both ``None`` this is a no-op report.
    ``dry_run`` computes the eviction set without deleting anything.
    """
    entries = scan_entries(directory)
    shielded = set(protect_keys) | protected_keys()
    now = time.time()  # lint-ok: SIM002 eviction grace-window bookkeeping, never touches results
    total_bytes = sum(entry.size for entry in entries)
    total_entries = len(entries)
    removed: list[str] = []
    freed = 0
    protected_kept = 0

    def over_bound() -> bool:
        if max_bytes is not None and total_bytes > max_bytes:
            return True
        if max_entries is not None and total_entries > max_entries:
            return True
        return False

    # Oldest first; ties broken by key so the order is reproducible.
    for entry in sorted(entries, key=lambda e: (e.mtime, e.key)):
        if not over_bound():
            break
        if entry.key in shielded or (now - entry.mtime) < min_age_seconds:
            protected_kept += 1
            continue
        if not dry_run:
            try:
                entry.path.unlink()
            except OSError:
                continue  # already gone — someone else evicted it
        removed.append(entry.key)
        freed += entry.size
        total_bytes -= entry.size
        total_entries -= 1

    if not dry_run:
        from repro.observe import telemetry

        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_cache_prune_passes_total",
                "Eviction passes executed over the disk cache.",
            ).inc()
            if removed:
                tel.counter(
                    "repro_cache_evictions_total",
                    "Disk-cache entries evicted by the LRU bounds.",
                ).inc(len(removed))
                tel.counter(
                    "repro_cache_evicted_bytes_total",
                    "Bytes reclaimed by disk-cache eviction.",
                ).inc(freed)

    return PruneReport(
        scanned=len(entries),
        removed=tuple(removed),
        freed_bytes=freed,
        kept_entries=total_entries,
        kept_bytes=total_bytes,
        protected_kept=protected_kept,
        dry_run=dry_run,
    )


def maybe_evict(
    protect_keys: Iterable[str] = (),
    *,
    max_bytes: int | None = None,
    max_entries: int | None = None,
    directory: Path | None = None,
    min_age_seconds: float = DEFAULT_GRACE_SECONDS,
) -> PruneReport | None:
    """Run one eviction pass if any bound is configured; None otherwise.

    This is the automatic hook on the cache write path: bounds default to
    the ``REPRO_SIM_CACHE_MAX_BYTES`` / ``REPRO_SIM_CACHE_MAX_ENTRIES``
    environment variables, and the write-grace window is on.
    """
    max_bytes = resolve_max_bytes(max_bytes)
    max_entries = resolve_max_entries(max_entries)
    if max_bytes is None and max_entries is None:
        return None
    return prune(
        max_bytes,
        max_entries,
        protect_keys=protect_keys,
        min_age_seconds=min_age_seconds,
        directory=directory,
    )

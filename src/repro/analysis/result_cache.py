"""The result cache: keys, entries, the memory and disk tiers, bounds, counters.

Experiments across different figures share many (workload, config) pairs —
every figure needs the baseline, several need the no-µ-op-cache and ideal
configurations.  Results are memoised in-process and, unless
``REPRO_SIM_CACHE=0``, pickled under ``.simcache/`` (or
``REPRO_SIM_CACHE_DIR``) so repeated invocations skip simulation
entirely.  This module is everything that knows that cache:

* **Keys** — :func:`cache_key`, the sha256 of a ``CACHE_VERSION`` salt,
  the workload's content token, the length and the config's repr.  Bump
  ``CACHE_VERSION`` whenever simulator semantics change, or wipe with
  :func:`clear_disk_cache`.
* **Entries** — each file holds ``(CACHE_VERSION, key, sha256,
  payload)``; loads verify the version, the key and the payload digest
  before unpickling the result, so a wrong or bit-rotted entry is
  discarded and re-simulated rather than silently returned.  Entries are
  written to a temp file in the cache directory and ``os.replace``-d into
  place, so a killed process can never leave a truncated ``.pkl`` at the
  final path.
* **Tiers** — :func:`probe`, the memory → disk lookup every path to a
  result uses, counting one hit per tier or one miss, so ``repro cache
  stats`` reports the same rates for the same traffic whichever path
  served it.  ``_memory_cache.setdefault`` publishes one object per key.
* **Bounds** — with ``REPRO_SIM_CACHE_MAX_BYTES`` or
  ``REPRO_SIM_CACHE_MAX_ENTRIES`` set, every store evicts least-recently
  written entries (by mtime) until the cache fits (:func:`prune`).  The
  entry just stored and any entry younger than the write-grace window are
  never evicted, which covers writers in other processes.  Eviction is
  best-effort: a concurrently deleted file is not an error, and because
  writes are atomic, removing an entry can never corrupt a reader — at
  worst the key re-simulates.
* **Commands** — :func:`cache_stats`, :func:`clear_disk_cache` and
  :func:`verify_disk_cache` behind ``repro cache``.

Nothing here imports the simulator, the workloads or numpy at module
level, so ``repro cache stats|clear|prune`` start cold: ``SimConfig`` and
``SimResult`` load only when an entry is decoded, and the workload
store's ``cache_token`` only when a key is built.  The job body that
fills the cache is :mod:`repro.analysis.runner`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.configs import SimConfig
    from repro.core.pipeline import SimResult
    from repro.observe.telemetry.registry import MetricsRegistry

#: Bump to invalidate previously cached simulation results.  v5 introduced
#: the checksummed envelope format; older plain-pickle entries fail the
#: envelope check and are discarded on first touch.  v6: UCP walk
#: back-pressure fixed to respect the Alt-FTQ capacity exactly (an
#: off-by-one found by the repro.verify sim sanitizer).  v7: the payload
#: is now ``(config, SimResult.to_dict())`` instead of a raw SimResult
#: pickle — the schema-versioned dict carries the full-run totals and the
#: interval-metrics time-series from the observability layer, and decoding
#: goes through ``SimResult.from_dict`` so shape drift raises instead of
#: resurrecting stale objects.
CACHE_VERSION = 7

_memory_cache: dict[str, SimResult] = {}


def _disk_enabled() -> bool:
    return os.environ.get("REPRO_SIM_CACHE", "1") != "0"


def _cache_dir() -> Path:
    """Cache directory, resolved from the environment at call time.

    Reading ``REPRO_SIM_CACHE_DIR`` lazily (rather than at import) lets
    tests and CI redirect the cache without re-importing the module.
    """
    return Path(os.environ.get("REPRO_SIM_CACHE_DIR", ".simcache"))


def _telemetry() -> MetricsRegistry | None:
    """The metrics registry when ``REPRO_SIM_TELEMETRY`` is on, else None.

    The variable is read here, with ``telemetry_level``'s parse, before
    :mod:`repro.observe.telemetry` is imported: its package loads the
    simulator's event bus and numpy, which a cache command run with
    telemetry off never needs.
    """
    if os.environ.get("REPRO_SIM_TELEMETRY", "") in ("", "0"):
        return None
    from repro.observe import telemetry

    return telemetry.maybe()


# -- keys ---------------------------------------------------------------------

#: ``id(config) -> (config, repr(config) encoded)`` for recently keyed
#: config objects, so the jobs of one matrix serialise their shared config
#: once.  An entry holds its config, so the id cannot be reused while the
#: entry lives; the table is cleared when it fills.
_config_reprs: dict[int, tuple[SimConfig, bytes]] = {}
_CONFIG_REPRS_MAX = 64


def _config_repr(config: SimConfig) -> bytes:
    entry = _config_reprs.get(id(config))
    if entry is not None and entry[0] is config:
        return entry[1]
    encoded = repr(config).encode()
    if len(_config_reprs) >= _CONFIG_REPRS_MAX:
        _config_reprs.clear()
    _config_reprs[id(config)] = (config, encoded)
    return encoded


def cache_key(
    workload: str, n_instructions: int, config: SimConfig, token: str | None = None
) -> str:
    """Stable content key for one (workload, config, length) simulation.

    The sha256 of ``v{CACHE_VERSION}|{token}|{n_instructions}|{config!r}``.
    Built-in suite workloads are keyed by name (their traces are
    deterministic functions of the committed generator), so existing
    cached results stay valid.  Ingested traces are keyed by
    ``name@digest`` — the content token from the trace store — so the
    key tracks the actual trace bytes, not just the label.  ``token`` is
    :func:`~repro.workloads.store.cache_token` of ``workload`` when the
    caller has already resolved it.
    """
    if token is None:
        from repro.workloads.store import cache_token

        token = cache_token(workload)
    digest = hashlib.sha256(f"v{CACHE_VERSION}|{token}|{n_instructions}|".encode())
    digest.update(_config_repr(config))
    return digest.hexdigest()[:32]


# -- entries ------------------------------------------------------------------


def _entry_path(key: str, directory: Path | None = None) -> Path:
    return (directory if directory is not None else _cache_dir()) / f"{key}.pkl"


def _encode_entry(key: str, result: SimResult) -> bytes:
    payload = pickle.dumps(
        (result.config, result.to_dict()), protocol=pickle.HIGHEST_PROTOCOL
    )
    digest = hashlib.sha256(payload).hexdigest()
    return pickle.dumps(
        (CACHE_VERSION, key, digest, payload), protocol=pickle.HIGHEST_PROTOCOL
    )


def _decode_entry(key: str, raw: bytes) -> SimResult:
    """Decode one cache file; raises on any mismatch or corruption."""
    from repro.core.configs import SimConfig
    from repro.core.pipeline import SimResult

    version, stored_key, digest, payload = pickle.loads(raw)
    if version != CACHE_VERSION:
        raise ValueError(f"cache version {version} != {CACHE_VERSION}")
    if stored_key != key:
        raise ValueError(f"cache key mismatch: {stored_key} != {key}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError("cache payload checksum mismatch")
    config, state = pickle.loads(payload)
    if not isinstance(config, SimConfig):
        raise ValueError(f"cache payload config is {type(config).__name__}, not SimConfig")
    return SimResult.from_dict(state, config)


# -- tiers --------------------------------------------------------------------


def _load_disk(key: str, directory: Path | None = None) -> SimResult | None:
    """Load a verified entry from disk (``directory``, default the cache
    directory now); drop anything suspect.

    Hits and misses are counted by :func:`probe`, so a job body that
    re-opens an entry after the probe does not count it twice.
    """
    if not _disk_enabled():
        return None
    path = _entry_path(key, directory)
    if not path.exists():
        return None
    try:
        return _decode_entry(key, path.read_bytes())
    except Exception:
        # Truncated, stale-format, or bit-rotted — drop it and re-simulate.
        path.unlink(missing_ok=True)
        tel = _telemetry()
        if tel is not None:
            tel.counter(
                "repro_cache_corrupt_dropped_total",
                "Disk-cache entries discarded for failing the envelope "
                "check (version, key, or checksum).",
            ).inc()
        return None


def _store_disk(key: str, result: SimResult, directory: Path | None = None) -> None:
    """Atomically persist one entry: temp file in-dir, then ``os.replace``
    (``directory``, default the cache directory now)."""
    if not _disk_enabled():
        return
    if directory is None:
        directory = _cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        blob = _encode_entry(key, result)
        fd, tmp_name = tempfile.mkstemp(
            dir=directory, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, _entry_path(key, directory))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # With a cache bound configured, every write is an eviction
        # opportunity; the entry just written is shielded.  No bound -> no-op.
        maybe_evict(protect_keys=(key,), directory=directory)
        tel = _telemetry()
        if tel is not None:
            tel.counter(
                "repro_cache_stores_total",
                "Result-cache entries persisted to disk.",
            ).inc()
    except Exception:
        # Caching is best-effort; the in-memory result is still valid.
        tel = _telemetry()
        if tel is not None:
            tel.counter(
                "repro_cache_store_errors_total",
                "Best-effort disk-cache writes that failed and were dropped.",
            ).inc()


def probe(key: str) -> tuple[SimResult | None, str]:
    """Look ``key`` up in memory, then on disk: ``(result, tier)``.

    Counts one ``repro_cache_hits_total`` for the tier that answered
    (``"memory"`` or ``"disk"``) or one ``repro_cache_misses_total``, and
    promotes a disk hit into memory.  A miss returns ``(None, "")``.  An
    exception from the disk tier propagates; the server turns it into a
    ``cache-corrupt`` error.
    """
    tier = "memory"
    result = _memory_cache.get(key)
    if result is None:
        tier = "disk"
        result = _load_disk(key)
        if result is not None:
            # A racer may have published first: keep one object per key.
            result = _memory_cache.setdefault(key, result)
    tel = _telemetry()
    if tel is not None:
        if result is None:
            tel.counter(
                "repro_cache_misses_total",
                "Cache probes that found no usable entry.",
            ).inc()
        else:
            tel.counter(
                "repro_cache_hits_total",
                "Result-cache hits by tier.",
                labels=("tier",),
            ).inc(tier=tier)
    return result, (tier if result is not None else "")


def clear_memory_cache() -> int:
    """Drop all in-process cached results; returns the number removed."""
    removed = len(_memory_cache)
    _memory_cache.clear()
    return removed


# -- bounds -------------------------------------------------------------------

#: Entries younger than this many seconds are never auto-evicted: a
#: just-written entry must survive long enough for its writer (possibly a
#: worker in another process) to read it back and merge it.
DEFAULT_GRACE_SECONDS = 30.0


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

    def render(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (
            f"{verb} {len(self.removed)} of {self.scanned} entries "
            f"({self.freed_bytes} bytes freed, {self.kept_entries} entries / "
            f"{self.kept_bytes} bytes kept, {self.protected_kept} protected)"
        )


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
        directory = _cache_dir()
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
    ``protect_keys`` and any entry younger than ``min_age_seconds``.
    Bounds of ``None`` mean "unbounded" on that axis; with both ``None``
    this is a no-op report.  ``dry_run`` computes the eviction set
    without deleting anything.
    """
    entries = scan_entries(directory)
    shielded = set(protect_keys)
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

    tel = None if dry_run else _telemetry()
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


# -- commands -----------------------------------------------------------------


def clear_disk_cache() -> int:
    """Delete all on-disk cached results (including stray temp files left
    by killed writers); returns the number of cache entries removed."""
    directory = _cache_dir()
    if not directory.exists():
        return 0
    removed = 0
    for path in directory.glob("*.pkl"):
        path.unlink(missing_ok=True)
        removed += 1
    for path in directory.glob(".*.tmp"):
        path.unlink(missing_ok=True)
    return removed


def cache_stats() -> dict:
    """Summary of the cache state for ``repro cache stats``.

    ``disk_entries`` / ``disk_bytes`` come from the scan the eviction
    bounds enforce (:func:`scan_entries`), tolerant of an entry evicted
    mid-scan, and the configured bounds ride along so ``repro cache
    stats`` shows exactly what the eviction policy sees.
    """
    directory = _cache_dir()
    entries = scan_entries(directory)
    temp_files = list(directory.glob(".*.tmp")) if directory.exists() else []
    return {
        "directory": str(directory),
        "disk_enabled": _disk_enabled(),
        "disk_entries": len(entries),
        "disk_bytes": sum(entry.size for entry in entries),
        "max_bytes": resolve_max_bytes(),
        "max_entries": resolve_max_entries(),
        "temp_files": len(temp_files),
        "memory_entries": len(_memory_cache),
        "cache_version": CACHE_VERSION,
        "telemetry": lifetime_cache_stats(),
    }


def lifetime_cache_stats() -> dict | None:
    """Process-lifetime hit/miss/eviction rates from the telemetry plane.

    None when ``REPRO_SIM_TELEMETRY`` is off (the disk index above is
    still reported) — the rates only exist while the metrics registry is
    collecting.  Counters that never fired read as 0.
    """
    tel = _telemetry()
    if tel is None:
        return None

    def count(name: str, **labels: str) -> int:
        assert tel is not None  # the early return above proves it
        return int(tel.value(name, **labels) or 0)

    hits_memory = count("repro_cache_hits_total", tier="memory")
    hits_disk = count("repro_cache_hits_total", tier="disk")
    misses = count("repro_cache_misses_total")
    hits = hits_memory + hits_disk
    probes = hits + misses
    return {
        "hits_memory": hits_memory,
        "hits_disk": hits_disk,
        "misses": misses,
        "hit_rate": round(hits / probes, 4) if probes else None,
        "stores": count("repro_cache_stores_total"),
        "store_errors": count("repro_cache_store_errors_total"),
        "evictions": count("repro_cache_evictions_total"),
        "evicted_bytes": count("repro_cache_evicted_bytes_total"),
        "corrupt_dropped": count("repro_cache_corrupt_dropped_total"),
    }


def verify_disk_cache(fix: bool = False) -> dict:
    """Check every on-disk entry's envelope (version + key + checksum).

    Returns ``{"ok": int, "corrupt": [filenames]}``; with ``fix=True``
    corrupt entries are deleted so the next run re-simulates them.
    """
    directory = _cache_dir()
    ok = 0
    corrupt: list[str] = []
    if directory.exists():
        for path in sorted(directory.glob("*.pkl")):
            key = path.stem
            try:
                _decode_entry(key, path.read_bytes())
                ok += 1
            except Exception:
                corrupt.append(path.name)
                if fix:
                    path.unlink(missing_ok=True)
    return {"ok": ok, "corrupt": corrupt}

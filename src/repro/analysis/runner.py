"""Cached simulation execution: the one cache probe and the one job body.

Experiments across different figures share many (workload, config) pairs —
every figure needs the baseline, several need the no-µ-op-cache and ideal
configurations.  ``run_cached`` memoises results in-process and, unless
``REPRO_SIM_CACHE=0``, pickles them under ``.simcache/`` (or
``REPRO_SIM_CACHE_DIR``) so repeated benchmark invocations skip simulation
entirely.  ``run_suite`` routes batches of workloads through the parallel
execution engine in :mod:`repro.analysis.parallel`.

Every path to a result goes through the same two functions here:

* :func:`probe` — the memory → disk lookup used by ``run_cached``,
  ``ParallelRunner.run`` and ``Scheduler.submit``.  It counts one hit per
  tier or one miss, so ``repro cache stats`` reports the same rates for
  the same traffic whichever path served it.
* :func:`run_job` — the job body for a miss: load (only an entry another
  process stored since the probe), or load the workload, simulate and
  store.  ``run_cached`` calls it directly; the engine runs it
  through the :func:`job_entry` seam, which tests and fault injectors
  patch.

The on-disk format is hardened against interrupted runs:

* **Atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``-d into place, so a killed process can never
  leave a truncated ``.pkl`` at the final path.
* **Checksummed envelope** — each file holds ``(CACHE_VERSION, key,
  sha256, payload)``; loads verify the version, the key and the payload
  digest before unpickling the result, so a wrong or bit-rotted entry is
  discarded and re-simulated rather than silently returned.
* **Single-flight** — concurrent in-process requests for the same key
  simulate once; the rest wait and reuse the result.

Cache keys include a ``CACHE_VERSION`` salt — bump it whenever simulator
semantics change, or wipe with :func:`clear_disk_cache`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult, Simulator, simulate
from repro.observe import telemetry
from repro.observe.telemetry import SpanContext, SpanSink
from repro.workloads.store import cache_token
from repro.workloads.suite import load_workload

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

# Single-flight bookkeeping: key -> Event set once the simulation finishes.
_inflight: dict[str, threading.Event] = {}
_inflight_lock = threading.Lock()


def _disk_enabled() -> bool:
    return os.environ.get("REPRO_SIM_CACHE", "1") != "0"


def _cache_dir() -> Path:
    """Cache directory, resolved from the environment at call time.

    Reading ``REPRO_SIM_CACHE_DIR`` lazily (rather than at import) lets
    tests and CI redirect the cache without re-importing the module.
    """
    return Path(os.environ.get("REPRO_SIM_CACHE_DIR", ".simcache"))


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


def cache_key(workload: str, n_instructions: int, config: SimConfig) -> str:
    """Stable content key for one (workload, config, length) simulation.

    The sha256 of ``v{CACHE_VERSION}|{token}|{n_instructions}|{config!r}``.
    Built-in suite workloads are keyed by name (their traces are
    deterministic functions of the committed generator), so existing
    cached results stay valid.  Ingested traces are keyed by
    ``name@digest`` — the content token from the trace store — so the
    key tracks the actual trace bytes, not just the label.
    """
    digest = hashlib.sha256(
        f"v{CACHE_VERSION}|{cache_token(workload)}|{n_instructions}|".encode()
    )
    digest.update(_config_repr(config))
    return digest.hexdigest()[:32]


def _entry_path(key: str) -> Path:
    return _cache_dir() / f"{key}.pkl"


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


def _load_disk(key: str) -> SimResult | None:
    """Load a verified entry from disk; drop anything suspect.

    Hits and misses are counted by :func:`probe`, so a job body that
    re-opens an entry after the probe does not count it twice.
    """
    if not _disk_enabled():
        return None
    path = _entry_path(key)
    if not path.exists():
        return None
    try:
        return _decode_entry(key, path.read_bytes())
    except Exception:
        # Truncated, stale-format, or bit-rotted — drop it and re-simulate.
        path.unlink(missing_ok=True)
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_cache_corrupt_dropped_total",
                "Disk-cache entries discarded for failing the envelope "
                "check (version, key, or checksum).",
            ).inc()
        return None


def _store_disk(key: str, result: SimResult) -> None:
    """Atomically persist one entry: temp file in-dir, then ``os.replace``."""
    if not _disk_enabled():
        return
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
            os.replace(tmp_name, _entry_path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # Service life: when a cache bound is configured, every write is
        # an eviction opportunity (LRU by mtime; the entry just written
        # and any in-flight keys are protected).  No bound -> no-op.
        from repro.serve.eviction import maybe_evict

        maybe_evict(protect_keys=(key,), directory=directory)
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_cache_stores_total",
                "Result-cache entries persisted to disk.",
            ).inc()
    except Exception:
        # Caching is best-effort; the in-memory result is still valid.
        tel = telemetry.maybe()
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
    tel = telemetry.maybe()
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


#: What :func:`run_job` returns: ``(result, seconds, taxonomy, spans)``.
JobOutput = tuple[SimResult, float, dict[str, Any] | None, list[dict[str, Any]]]


def run_job(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    observe: bool = False,
    trace_wire: dict[str, Any] | None = None,
) -> JobOutput:
    """The job body: produce one result the caches missed, and store it.

    The caller has already probed (and counted) the caches, so an entry
    is opened only if another process stored it since.  Otherwise the
    workload is loaded and simulated — with the observer armed only when
    ``observe`` is set, for the stall taxonomy a served stream carries —
    and the result is stored atomically, so work done in a pool worker
    survives a parent that dies before merging it.

    Returns ``(result, seconds, taxonomy, spans)``: the job's wall
    seconds, the taxonomy (None unless observed and simulated), and, with
    ``REPRO_SIM_TELEMETRY`` on, the ``worker.job`` / ``runner.simulate``
    spans as plain dicts under ``trace_wire`` (a
    :meth:`SpanContext.as_wire` dict; None starts a new trace).  The spans
    are built in a job-local sink, so no telemetry object crosses a
    pickle boundary and a thread-mode slot cannot record them twice; the
    caller records them with :func:`record_spans`.
    """
    start = time.perf_counter()  # lint-ok: SIM002 job timing telemetry, never touches results
    sink = SpanSink() if telemetry.telemetry_enabled() else None
    job_span = (
        sink.start_span(
            "worker.job",
            parent=SpanContext.from_wire(trace_wire),
            attrs={"workload": workload, "pid": os.getpid()},
        )
        if sink is not None
        else None
    )
    key = cache_key(workload, n_instructions, config)
    result = _load_disk(key)
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
        if observe:
            sim = Simulator(spec.trace, config, name=workload, observe=True)
            result = sim.run()
            if sim.observer is not None:
                taxonomy = sim.observer.taxonomy.as_dict()
        else:
            result = simulate(spec.trace, config, name=workload)
        _store_disk(key, result)
        if sink is not None and sim_span is not None:
            sink.finish(sim_span, instructions=result.instructions)
    spans: list[dict[str, Any]] = []
    if sink is not None and job_span is not None:
        sink.finish(job_span, source=source)
        spans = [span.to_dict() for span in sink.drain()]
    return result, time.perf_counter() - start, taxonomy, spans  # lint-ok: SIM002 timing telemetry


def job_entry(
    workload: str,
    config: SimConfig,
    n_instructions: int,
    observe: bool = False,
    trace_wire: dict[str, Any] | None = None,
) -> JobOutput:
    """The worker seam: what ``ParallelRunner`` and the scheduler's slots
    run for each job, in process or in a pool worker.

    The engine looks it up on this module when it dispatches, and a
    process pool pickles it by name, so a test double or fault injector
    patched over it reaches serial runs, thread slots and pool workers
    alike (a double sent to a process pool must be a module-level
    function).  Doubles call :func:`run_job` for the real work.
    """
    return run_job(workload, config, n_instructions, observe, trace_wire)


def record_spans(spans: list[dict[str, Any]]) -> None:
    """Re-record span dicts a job returned into this process's sink."""
    sink = telemetry.maybe_spans()
    if sink is not None:
        for span in spans:
            sink.record(span)


def run_cached(workload: str, config: SimConfig, n_instructions: int = 40_000) -> SimResult:
    """Simulate ``workload`` under ``config``, reusing cached results.

    Thread-safe and single-flight: if another thread is already simulating
    the same key, this call waits for it instead of duplicating the work.
    Each call counts one cache probe.
    """
    key = cache_key(workload, n_instructions, config)
    result = probe(key)[0]
    while result is None:
        with _inflight_lock:
            # Re-check under the lock — a racer may have just finished.
            result = _memory_cache.get(key)
            if result is not None:
                break
            pending = _inflight.get(key)
            if pending is None:
                _inflight[key] = threading.Event()
                break  # we own the flight
        tel = telemetry.maybe()
        if tel is not None:
            tel.counter(
                "repro_cache_singleflight_joins_total",
                "run_cached calls that joined another thread's in-flight "
                "simulation instead of duplicating it.",
            ).inc()
        pending.wait()
        result = _memory_cache.get(key)
    if result is not None:
        return result

    try:
        result, _seconds, _taxonomy, spans = run_job(workload, config, n_instructions)
        record_spans(spans)
        # A caller that probed after run_job's disk store has promoted
        # that entry already; every caller gets the one published object.
        return _memory_cache.setdefault(key, result)
    finally:
        with _inflight_lock:
            event = _inflight.pop(key, None)
        if event is not None:
            event.set()


def run_suite(
    workloads: list[str],
    config: SimConfig,
    n_instructions: int = 40_000,
    *,
    jobs: int | None = None,
    progress=None,
) -> dict[str, SimResult]:
    """Run several workloads under one config, in parallel when possible.

    ``jobs`` overrides the worker count (default: see
    :class:`repro.analysis.parallel.ParallelRunner`); inside
    :func:`repro.analysis.parallel.pool_scope` the batch runs on the
    scope's worker slots.  ``progress`` is an optional
    ``(done, total, job)`` callback.  Results are bit-identical to calling
    :func:`run_cached` serially for each workload.
    """
    from repro.analysis.parallel import ParallelRunner, SimJob

    runner = ParallelRunner(jobs=jobs, progress=progress)
    sim_jobs = [SimJob(name, config, n_instructions) for name in workloads]
    by_key = runner.run(sim_jobs)
    return {job.workload: by_key[job.key] for job in sim_jobs}


def clear_memory_cache() -> int:
    """Drop all in-process cached results; returns the number removed."""
    removed = len(_memory_cache)
    _memory_cache.clear()
    return removed


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
    # The warm-start index (repro.serve.snapshot) is stale once the
    # entries are gone; drop it so a restart rescans honestly.
    (directory / "cache-index.json").unlink(missing_ok=True)
    return removed


def cache_stats() -> dict:
    """Summary of the cache state for ``repro cache stats``.

    ``disk_entries`` / ``disk_bytes`` come from the same scan the
    eviction bounds enforce (:func:`repro.serve.eviction.scan_entries`) —
    race-tolerant where the old ``path.stat()`` sweep could blow up on a
    concurrently evicted entry — and the configured bounds plus the
    warm-start snapshot state ride along so ``repro cache stats`` shows
    exactly what the eviction policy sees.
    """
    from repro.serve.eviction import resolve_max_bytes, resolve_max_entries, scan_entries
    from repro.serve.snapshot import read_snapshot

    directory = _cache_dir()
    entries = scan_entries(directory)
    temp_files = list(directory.glob(".*.tmp")) if directory.exists() else []
    snapshot = read_snapshot(directory)
    return {
        "directory": str(directory),
        "disk_enabled": _disk_enabled(),
        "disk_entries": len(entries),
        "disk_bytes": sum(entry.size for entry in entries),
        "max_bytes": resolve_max_bytes(),
        "max_entries": resolve_max_entries(),
        "temp_files": len(temp_files),
        "memory_entries": len(_memory_cache),
        "snapshot_entries": None if snapshot is None else len(snapshot),
        "cache_version": CACHE_VERSION,
        "telemetry": lifetime_cache_stats(),
    }


def lifetime_cache_stats() -> dict | None:
    """Process-lifetime hit/miss/eviction rates from the telemetry plane.

    None when ``REPRO_SIM_TELEMETRY`` is off (the disk index above is
    still reported) — the rates only exist while the metrics registry is
    collecting.  Counters that never fired read as 0.
    """
    tel = telemetry.maybe()
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
        "singleflight_joins": count("repro_cache_singleflight_joins_total"),
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

"""``repro top``: a live terminal dashboard over the status verb.

Polls a running experiment server's ``status`` message (which carries
the scheduler counters, the cache state, and — when the server runs
with ``REPRO_SIM_TELEMETRY=1`` — the full metrics-registry snapshot)
and renders a compact, deterministic text view.  ``--once`` prints a
single frame (scriptable, used by tests); ``--json`` dumps the raw
status instead of rendering.

Rendering is pure (:func:`render_status` is dict → str) so tests never
need a TTY; only :func:`run_top` touches the terminal.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

__all__ = ["render_status", "run_top"]

#: Metric families surfaced in the dashboard's telemetry pane, in order.
_TOP_FAMILIES = (
    "repro_sched_jobs_total",
    "repro_sched_queue_depth",
    "repro_sched_restarts_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_engine_jobs_total",
)


def _fmt_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return "{" + inner + "}"


def _telemetry_lines(snapshot: dict[str, Any] | None) -> list[str]:
    if not snapshot:
        return ["telemetry: off (server runs without REPRO_SIM_TELEMETRY)"]
    by_name = {
        str(metric.get("name")): metric
        for metric in snapshot.get("metrics", [])
        if isinstance(metric, dict)
    }
    lines = [f"telemetry: on ({len(by_name)} metric families)"]
    for name in _TOP_FAMILIES:
        metric = by_name.get(name)
        if metric is None:
            continue
        for sample in metric.get("samples", []):
            if "value" not in sample:
                continue  # histograms are too wide for the dashboard
            labels = sample.get("labels") or {}
            lines.append(f"  {name}{_fmt_labels(labels)} {sample['value']}")
    return lines


def render_status(status: dict[str, Any], endpoint: str = "") -> str:
    """One dashboard frame for a ``status`` reply (deterministic)."""
    scheduler = status.get("scheduler") or {}
    counters = scheduler.get("counters") or {}
    cache = status.get("cache") or {}
    lifetime = cache.get("telemetry")

    where = f" @ {endpoint}" if endpoint else ""
    lines = [
        f"repro serve{where} · protocol {status.get('protocol', '?')} · "
        f"mode {scheduler.get('mode', '?')} · "
        f"shards {scheduler.get('shards', '?')}",
        "jobs: "
        + ", ".join(
            f"{name.removeprefix('jobs_')} {counters.get(name, 0)}"
            for name in (
                "jobs_requested",
                "jobs_coalesced",
                "jobs_from_memory",
                "jobs_from_disk",
                "jobs_simulated",
                "jobs_failed",
            )
        ),
        f"queue: {scheduler.get('queued', 0)} queued · "
        f"{scheduler.get('in_flight', 0)} in flight · "
        f"{scheduler.get('restarts', 0)} restarts · "
        f"{len(scheduler.get('quarantined') or [])} quarantined · "
        f"max pending {status.get('max_pending', '?')}",
        f"cache: {cache.get('disk_entries', 0)} entries / "
        f"{cache.get('disk_bytes', 0)} bytes @ {cache.get('directory', '?')} "
        f"(disk {'on' if cache.get('disk_enabled') else 'off'})",
    ]
    if lifetime:
        rate = lifetime.get("hit_rate")
        rendered = "n/a" if rate is None else f"{rate * 100:.1f}%"
        lines.append(
            f"cache lifetime: hit rate {rendered} "
            f"(memory {lifetime.get('hits_memory', 0)} / "
            f"disk {lifetime.get('hits_disk', 0)} hits, "
            f"{lifetime.get('misses', 0)} misses, "
            f"{lifetime.get('evictions', 0)} evictions)"
        )
    lines.extend(_telemetry_lines(status.get("telemetry")))
    return "\n".join(lines)


async def _poll_once(host: str, port: int) -> dict[str, Any]:
    # Imported lazily: repro.serve imports this package at module load.
    from repro.serve.client import ServeClient

    async with ServeClient(host=host, port=port) as client:
        status: dict[str, Any] = await client.status()
        return status


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 2.0,
    once: bool = False,
    as_json: bool = False,
) -> int:
    """Drive the dashboard loop; returns a process exit code."""

    async def loop() -> int:
        while True:
            try:
                status = await _poll_once(host, port)
            except (ConnectionError, OSError) as error:
                print(f"repro top: cannot reach {host}:{port}: {error}")
                return 1
            if as_json:
                print(json.dumps(status, sort_keys=True))
            else:
                if not once:
                    print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
                print(render_status(status, endpoint=f"{host}:{port}"))
            if once:
                return 0
            await asyncio.sleep(interval)

    try:
        return asyncio.run(loop())
    except KeyboardInterrupt:
        return 0

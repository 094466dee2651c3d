"""Shared pieces of the benchmark: statistics, result digests, accounting.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

#: Committed digests of every simulated result the workloads can produce.
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The rule for a tail percentile: at least this many of a run's samples
#: lie beyond it.
MIN_BEYOND = 10


def p95(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank p95 of ``samples`` and how many samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(0.95 * n))
    return sorted(samples)[rank - 1], n - rank


def digest(payload: object) -> str:
    """Stable content digest of a JSON-serialisable result."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def child_env(src: Path, cache_dir: Path | None = None) -> dict[str, str]:
    """Environment of a program subprocess: the checkout's sources, no
    inherited ``REPRO_*`` knobs, and optionally its own result cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    if cache_dir is not None:
        env["REPRO_SIM_CACHE_DIR"] = str(cache_dir)
    return env


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    descendant) in MiB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Operation accounting plus the metrics of one measured pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def record(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a failed one keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def fail(self, problem: str) -> None:
        """A whole-run check failed (counts against correctness, not ops)."""
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def set_latencies(self, seconds: list[float]) -> None:
        """``latency_ms`` (the median) and ``latency_p95_ms`` of one run's
        operations, noting whether the p95 meets :data:`MIN_BEYOND`."""
        self.set("latency_ms", 1000.0 * median(seconds), "ms")
        value, beyond = p95(seconds)
        self.set("latency_p95_ms", 1000.0 * value, "ms")
        verdict = "meets" if beyond >= MIN_BEYOND else "is below"
        self.notes.append(
            f"latency_p95_ms: {len(seconds)} operations, {beyond} beyond the p95; "
            f"{verdict} the {MIN_BEYOND}-beyond rule"
        )


def check_digest(
    outcome: Outcome, table: dict[str, str], key: str, payload: object
) -> None:
    """Record one operation whose result must match ``table[key]``."""
    expected = table.get(key)
    if expected is None:
        outcome.record(False, f"{key}: no committed digest")
    elif digest(payload) != expected:
        outcome.record(False, f"{key}: result digest mismatch")
    else:
        outcome.record(True)

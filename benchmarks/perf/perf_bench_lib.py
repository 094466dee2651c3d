"""Shared machinery for the perf-regression benchmark suite.

The suite runs the **pinned subset** — the six golden-fixture cases
(``fp_01``/``int_02``/``srv_05`` under the baseline and UCP
configurations, 6,000 instructions, matching ``tests/golden/``) — and
produces ``BENCH_sim.json``::

    {
      "schema": 2,
      "n_instructions": 6000,
      "calibration_ops_per_sec": <fixed pure-python loop throughput>,
      "configs": {
        "fp_01/base": {
          "wall_seconds": ..., "cycles": ..., "instructions": ...,
          "cycles_per_sec": ..., "instr_per_sec": ...,
          "normalized_instr_per_sec": ...   # instr_per_sec / calibration
        }, ...
      },
      "geomean_instr_per_sec": ...,
      "geomean_normalized": ...
    }

Raw instr/sec is machine-dependent, so the regression gate compares the
**normalized** throughput: simulated instructions per second divided by
how fast the same interpreter runs a fixed pure-Python integer loop.
Both numerator and denominator scale with host speed and interpreter
version, so their ratio tracks *simulator* efficiency.  The committed
baseline lives in ``benchmarks/perf/BENCH_baseline.json``; CI fails when
the geomean normalized throughput regresses by more than 25%.

Run the regression gate from a shell (CI does exactly this)::

    python benchmarks/perf/perf_bench_lib.py check \
        --current out/BENCH_sim.json \
        --baseline benchmarks/perf/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import SimResult, simulate
from repro.workloads import load_workload

#: Instruction budget of the pinned subset — matches ``tests/golden``.
N_INSTRUCTIONS = 6_000

#: BENCH payload schema; payloads of any other schema are not gated against.
SCHEMA = 2

#: Default regression tolerance: fail when geomean normalized throughput
#: drops below (1 - tolerance) x baseline.
DEFAULT_TOLERANCE = 0.25

BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"


def pinned_cases() -> dict[str, tuple[str, SimConfig]]:
    """The pinned workload x config subset, keyed ``workload/label``."""
    cases: dict[str, tuple[str, SimConfig]] = {}
    for workload in ("fp_01", "int_02", "srv_05"):
        cases[f"{workload}/base"] = (workload, SimConfig())
        cases[f"{workload}/ucp"] = (
            workload,
            SimConfig(ucp=UCPConfig(enabled=True)),
        )
    return cases


def calibration_ops_per_sec(repeats: int = 3, ops: int = 200_000) -> float:
    """Throughput of a fixed pure-Python integer loop (best of ``repeats``).

    The loop body is frozen — changing it would silently rescale every
    normalized number and invalidate the committed baseline.
    """
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        value = 1
        for _ in range(ops):
            value = (value * 1103515245 + 12345) & 0xFFFFFFFF
        best = min(best, perf_counter() - start)
    return ops / best


def time_case(workload: str, config: SimConfig, repeats: int = 3) -> tuple[SimResult, float]:
    """Simulate one pinned case; wall time is the best of ``repeats`` runs."""
    trace = load_workload(workload, N_INSTRUCTIONS).trace
    best = math.inf
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = simulate(trace, config, name=workload)
        best = min(best, perf_counter() - start)
    return result, best


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(repeats: int = 3) -> dict:
    """Measure the pinned subset and return the BENCH_sim payload."""
    calibration = calibration_ops_per_sec()
    configs: dict[str, dict] = {}
    for key, (workload, config) in sorted(pinned_cases().items()):
        result, wall = time_case(workload, config, repeats=repeats)
        instr_per_sec = result.instructions / wall
        configs[key] = {
            "wall_seconds": wall,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "cycles_per_sec": result.cycles / wall,
            "instr_per_sec": instr_per_sec,
            "normalized_instr_per_sec": instr_per_sec / calibration,
        }
    return {
        "schema": SCHEMA,
        "n_instructions": N_INSTRUCTIONS,
        "calibration_ops_per_sec": calibration,
        "configs": configs,
        "geomean_instr_per_sec": _geomean(
            [row["instr_per_sec"] for row in configs.values()]
        ),
        "geomean_normalized": _geomean(
            [row["normalized_instr_per_sec"] for row in configs.values()]
        ),
    }


def validate_bench(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed BENCH_sim."""
    for field in (
        "schema",
        "n_instructions",
        "calibration_ops_per_sec",
        "configs",
        "geomean_instr_per_sec",
        "geomean_normalized",
    ):
        if field not in payload:
            raise ValueError(f"BENCH_sim missing field {field!r}")
    if payload["schema"] != SCHEMA:
        raise ValueError(f"unknown BENCH_sim schema {payload['schema']!r}")
    if set(payload["configs"]) != set(pinned_cases()):
        raise ValueError(
            f"BENCH_sim configs {sorted(payload['configs'])} do not match "
            f"the pinned subset {sorted(pinned_cases())}"
        )
    for key, row in payload["configs"].items():
        for field in (
            "wall_seconds",
            "cycles",
            "instructions",
            "cycles_per_sec",
            "instr_per_sec",
            "normalized_instr_per_sec",
        ):
            if field not in row:
                raise ValueError(f"BENCH_sim config {key!r} missing {field!r}")
            if not row[field] > 0:
                raise ValueError(f"BENCH_sim {key}.{field} must be positive")


def compare_bench(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, str]:
    """Gate ``current`` against ``baseline`` on normalized throughput.

    Returns ``(ok, report)``.  The gate is the *geomean* across the
    pinned subset — per-config numbers are reported for context but a
    single noisy config does not fail the build.
    """
    validate_bench(baseline)
    validate_bench(current)
    lines = [
        f"{'config':<14s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}",
    ]
    for key in sorted(baseline["configs"]):
        base_norm = baseline["configs"][key]["normalized_instr_per_sec"]
        cur_norm = current["configs"][key]["normalized_instr_per_sec"]
        lines.append(
            f"{key:<14s} {base_norm:>10.4f} {cur_norm:>10.4f} "
            f"{cur_norm / base_norm:>6.2f}x"
        )
    base_geo = baseline["geomean_normalized"]
    cur_geo = current["geomean_normalized"]
    ratio = cur_geo / base_geo
    ok = ratio >= 1.0 - tolerance
    lines.append(
        f"{'geomean':<14s} {base_geo:>10.4f} {cur_geo:>10.4f} {ratio:>6.2f}x  "
        f"({'OK' if ok else 'REGRESSION'}, gate {1.0 - tolerance:.2f}x)"
    )
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    actions = parser.add_subparsers(dest="action", required=True)

    run = actions.add_parser("run", help="measure the pinned subset")
    run.add_argument("--output", default="BENCH_sim.json")
    run.add_argument("--repeats", type=int, default=3)

    check = actions.add_parser("check", help="gate a BENCH_sim vs the baseline")
    check.add_argument("--current", required=True)
    check.add_argument("--baseline", default=str(BASELINE_PATH))
    check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    args = parser.parse_args(argv)
    if args.action == "run":
        payload = run_bench(repeats=args.repeats)
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
        print(f"geomean {payload['geomean_instr_per_sec']:,.0f} instr/s "
              f"(normalized {payload['geomean_normalized']:.4f})")
        return 0
    if args.action == "check":
        baseline = json.loads(Path(args.baseline).read_text())
        current = json.loads(Path(args.current).read_text())
        try:
            ok, report = compare_bench(baseline, current, tolerance=args.tolerance)
        except ValueError as error:
            print(f"BENCH GATE ERROR: {error}")
            return 2
        print(report)
        return 0 if ok else 1
    raise AssertionError(f"unhandled action {args.action}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

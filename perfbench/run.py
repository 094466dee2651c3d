"""The repository benchmark: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload loop_base --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each exists): ``loop_base``,
``loop_ucp``, ``fig_cold`` and ``serve_mix``.  With ``--trace 0`` the
last line of standard output is one JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run (see ``layers.py``), and the spans are written under
``perfbench/out/``.  Every operation's simulated statistics are checked
against ``digests.json``; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("loop_base", "loop_ucp", "fig_cold", "serve_mix")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: int, work: Path, tracer):
    """One measured pass of ``workload``; returns its :class:`Outcome`."""
    import figure
    import loops
    import servemix
    from harness import load_digests

    digests = load_digests()
    if workload in ("loop_base", "loop_ucp"):
        return loops.run(workload == "loop_ucp", seed, seconds, tracer, digests)
    if workload == "fig_cold":
        return figure.run(SRC, work, seed, seconds, tracer, digests)
    return servemix.run(SRC, work, seed, seconds, tracer, digests)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    # The program sees only what the benchmark passes it: no inherited knobs.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))

    from harness import Outcome
    from spans import NullTracer, Tracer

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_SIM_CACHE_DIR"] = str(work / "cache")
    try:
        outcome: Outcome = measure(args.workload, args.seed, args.seconds, work, NullTracer())
        if args.trace:
            import layers

            tracer = Tracer()
            traced = measure(args.workload, args.seed, args.seconds, work, tracer)
            outcome = layers.run(SRC, work, outcome, traced, tracer)
            tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    for problem in outcome.problems[:20]:
        print(f"FAILED: {problem}")
    for note in outcome.notes:
        print(f"note: {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

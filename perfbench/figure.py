"""``fig_cold``: the user's figure-reproduction path, cold, in a subprocess.

Each operation is a fresh interpreter running ``python -m repro
experiment fig10 ... --jobs 2`` against an empty result-cache directory:
import, CLI, three engine batches with pool start-up, trace generation
and stream recording in the workers, three configs' loops and the disk
store.  Set-up is a fresh interpreter importing ``repro.cli`` (the first
one also compiles the bytecode cache).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from harness import Outcome, check_digest, child_env, peak_rss_mb
from plans import FIG_INSTRUCTIONS, FIG_NAME, FIG_WORKLOADS, fig_orders
from spans import Tracer

#: Fresh-interpreter imports per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Wall-clock budget of one figure subprocess before it counts as failed.
OP_TIMEOUT_S = 120.0
#: Engine batches of the figure: no µ-op cache, baseline, UCP.
FIG_CONFIGS = 3

IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - start)"
)


def cold_import(src: Path) -> tuple[float, float]:
    """Wall seconds of a fresh interpreter importing ``repro.cli``, and the
    import time it measured itself."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(src),
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
        check=True,
    )
    return perf_counter() - start, float(done.stdout.strip())


def figure_rows(stdout: str) -> list[list[str]]:
    """The table rows of the rendered figure, sorted by workload."""
    lines = stdout.splitlines()
    try:
        first = next(i for i, line in enumerate(lines) if line.startswith("----")) + 1
    except StopIteration:
        return []
    rows = []
    for line in lines[first:]:
        if not line.strip():
            break
        rows.append(line.split())
    return sorted(rows)


def fig_key(n_instructions: int = FIG_INSTRUCTIONS) -> str:
    return f"{FIG_NAME}|{','.join(sorted(FIG_WORKLOADS))}|{n_instructions}"


def run_figure(src: Path, work: Path, order: tuple[str, ...]) -> tuple[float, int, str]:
    """One cold figure run: (wall seconds, exit code, stdout)."""
    cache_dir = work / "fig-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    command = [
        sys.executable, "-m", "repro", "experiment", FIG_NAME,
        "--workloads", *order,
        "--instructions", str(FIG_INSTRUCTIONS),
        "--jobs", "2",
    ]  # fmt: skip
    start = perf_counter()
    try:
        done = subprocess.run(
            command,
            env=child_env(src, cache_dir),
            cwd=work,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
        code, stdout = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        code, stdout = -1, ""
    elapsed = perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return elapsed, code, stdout


def run(src: Path, work: Path, seed: int, seconds: float, tracer: Tracer, digests: dict) -> Outcome:
    table = digests["fig"]
    outcome = Outcome()

    setups = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("setup.cold_import"):
            setups.append(cold_import(src)[0])

    latencies: list[float] = []
    orders = fig_orders(seed)
    start = perf_counter()
    while perf_counter() - start < seconds:
        order = next(orders)
        with tracer.span("fig.subprocess", workloads=",".join(order)):
            elapsed, code, stdout = run_figure(src, work, order)
        latencies.append(elapsed)
        if code != 0:
            outcome.record(False, f"{FIG_NAME} exited with {code}")
        else:
            check_digest(outcome, table, fig_key(), figure_rows(stdout))
    elapsed = perf_counter() - start

    instructions = len(latencies) * FIG_CONFIGS * len(FIG_WORKLOADS) * FIG_INSTRUCTIONS
    outcome.set("sim_kips", instructions / elapsed / 1000.0, "kips")
    outcome.set_latencies(latencies)
    outcome.set("setup_s", median(setups), "s")
    # The figure's own processes (child and its pool workers), not this one.
    outcome.set("peak_rss_mb", peak_rss_mb(children=True), "MB")
    return outcome

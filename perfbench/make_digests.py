"""Regenerate ``digests.json``, the committed reference results.

Run from the root of a checkout, only when a change is meant to alter
simulated statistics::

    python3 perfbench/make_digests.py

Loop and served results are simulated in-process with ``simulate()``
(served jobs run on the server's own path, so the check also holds the
two paths to the same statistics); the figure rows come from one cold
``repro experiment`` subprocess, exactly as ``fig_cold`` runs it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import figure  # noqa: E402
import loops  # noqa: E402
from harness import DIGESTS_PATH, digest  # noqa: E402
from plans import FIG_WORKLOADS, LOOP_INSTRUCTIONS, LOOP_TRACES  # noqa: E402
from plans import SERVE_INSTRUCTIONS, serve_key, serve_universe  # noqa: E402
from servemix import summary_payload  # noqa: E402

from repro.analysis.parallel import SimJob  # noqa: E402
from repro.core.configs import config_from_spec  # noqa: E402
from repro.core.pipeline import simulate  # noqa: E402
from repro.serve.protocol import result_summary  # noqa: E402
from repro.workloads import load_workload  # noqa: E402


def main() -> int:
    table: dict[str, dict[str, str]] = {"loop": {}, "fig": {}, "serve": {}}
    for ucp in (False, True):
        config = loops.loop_config(ucp)
        for name in LOOP_TRACES:
            trace = load_workload(name, LOOP_INSTRUCTIONS).trace
            result = simulate(trace, config, name=name)
            table["loop"][loops.loop_key(name, ucp)] = digest(result.to_dict())

    work = HERE / ".work" / "digests"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _, code, stdout = figure.run_figure(SRC, work, FIG_WORKLOADS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        print(f"figure run failed with exit code {code}", file=sys.stderr)
        return 1
    table["fig"][figure.fig_key()] = digest(figure.figure_rows(stdout))

    for workload, spec in serve_universe():
        job = SimJob(workload, config_from_spec(spec), SERVE_INSTRUCTIONS)
        trace = load_workload(workload, SERVE_INSTRUCTIONS).trace
        result = simulate(trace, job.config, name=workload)
        summary = summary_payload(result_summary(job, result, cached=False))
        table["serve"][serve_key(workload, spec, SERVE_INSTRUCTIONS)] = digest(summary)

    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in table.values())} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

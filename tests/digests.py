"""Pinned simulator digests: the reference every simulator change must hit.

Two fixture families live in ``tests/golden/sim_digests.json``:

* ``results`` — for every differential case (the pinned perf suite and
  the datacenter slice under base/UCP, six config variants of int_02,
  three UCP variants of int_02 and dc_interp_01, and the hand-built
  branchy trace) the sha256 of ``SimResult.to_dict()``
  plus the idle-skip telemetry ``(skipped_cycles, skip_events)``;
* ``observed`` — for 16 cases run with the sanitizer and the event bus
  armed (``check=True, observe=True``), the result digest, the stall
  taxonomy and the sha256 of the full observer event list.

The fixture was first written while the simulator still had a separate
interpreter and replay-kernel path, and only after both produced every
record identically.  Regenerate after an *intentional* semantics change
with::

    PYTHONPATH=src python -m tests.digests

The simulator is deterministic, so regeneration is reproducible on any
machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from repro.core.configs import SimConfig
from repro.core.pipeline import Simulator
from repro.isa.trace import Trace
from repro.workloads import load_workload

FIXTURE = Path(__file__).parent / "golden" / "sim_digests.json"

PINNED = ("fp_01", "int_02", "srv_05")
DC_SLICE = ("dc_call_01", "dc_interp_01", "dc_mega_01")
OBSERVED = (
    "int_02",
    "srv_05",
    "dc_call_01",
    "dc_interp_01",
    "dc_mega_01",
    "web_01",
    "fp_01",
    "crypto_01",
)
OBSERVED_INSTRUCTIONS = 6_500

#: Config variants of int_02 (label -> SimConfig transform).
VARIANTS: dict[str, Callable[[SimConfig], SimConfig]] = {
    "no_uop": lambda c: c.without_uop_cache(),
    "ideal": lambda c: replace(c, ideal_uop_cache=True),
    "brcond": lambda c: replace(c, ideal_brcond_window=64),
    "l1i_uop": lambda c: replace(c, l1i_hits_are_uop_hits=True),
    "mrc": lambda c: replace(c, mrc_entries=64),
    "djolt": lambda c: replace(c, l1i_prefetcher="djolt"),
}

#: UCP variants (label -> ``ucp_config`` overrides) beyond the default
#: UCP-Conf + Alt-Ind engine, each run on :data:`UCP_VARIANT_WORKLOADS`.
UCP_VARIANTS: dict[str, dict[str, Any]] = {
    "noind": {"use_indirect": False},
    "tage_conf": {"confidence": "tage"},
    "perceptron": {"confidence": "perceptron"},
}
UCP_VARIANT_WORKLOADS = ("int_02", "dc_interp_01")


def configs() -> dict[str, SimConfig]:
    from repro.experiments.common import baseline_config, ucp_config

    return {"base": baseline_config(), "ucp": ucp_config()}


def result_cases() -> dict[str, tuple[Callable[[], Trace], SimConfig]]:
    """Case id -> (trace factory, config) for the ``results`` family."""
    from repro.experiments.common import ucp_config
    from tests.conftest import build_branchy_trace

    cases: dict[str, tuple[Callable[[], Trace], SimConfig]] = {}
    labelled = configs()

    def workload(name: str, n: int) -> Callable[[], Trace]:
        return lambda: load_workload(name, n).trace

    for name in PINNED:
        for label, config in labelled.items():
            cases[f"{name}/{label}@2500"] = (workload(name, 2_500), config)
    for name in DC_SLICE:
        for label, config in labelled.items():
            cases[f"{name}/{label}@2000"] = (workload(name, 2_000), config)
    for label, transform in VARIANTS.items():
        cases[f"int_02/{label}@2000"] = (workload("int_02", 2_000), transform(SimConfig()))
    for name in UCP_VARIANT_WORKLOADS:
        for label, overrides in UCP_VARIANTS.items():
            cases[f"{name}/ucp_{label}@2000"] = (workload(name, 2_000), ucp_config(**overrides))
    cases["branchy/default"] = (build_branchy_trace, SimConfig())
    return cases


def observed_cases() -> dict[str, tuple[str, SimConfig]]:
    """Case id -> (workload, config) for the ``observed`` family."""
    return {
        f"{name}/{label}": (name, config)
        for name in OBSERVED
        for label, config in configs().items()
    }


def sha256_json(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_record(trace: Trace, config: SimConfig, name: str) -> dict[str, Any]:
    """Digest of one plain run (idle-skip forced on, sampling at default)."""
    sim = Simulator(trace, config, name=name, idle_skip=True)
    result = sim.run()
    return {
        "sha256": sha256_json(result.to_dict()),
        "skipped_cycles": sim.skipped_cycles,
        "skip_events": sim.skip_events,
    }


def observed_record(workload: str, config: SimConfig) -> dict[str, Any]:
    """Digest, taxonomy and event-list hash of one checked+observed run."""
    trace = load_workload(workload, OBSERVED_INSTRUCTIONS).trace
    sim = Simulator(trace, config, name=workload, check=True, observe=True, idle_skip=True)
    result = sim.run()
    observer = sim.observer
    assert observer is not None
    events = [event.as_dict() for event in observer.events]
    return {
        "sha256": sha256_json(result.to_dict()),
        "taxonomy": observer.taxonomy.as_dict(),
        "events": len(events),
        "events_sha256": sha256_json(events),
    }


def load_fixture() -> dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def build_fixture() -> dict[str, Any]:
    results = {
        case: result_record(make_trace(), config, case.split("@")[0])
        for case, (make_trace, config) in result_cases().items()
    }
    observed = {
        case: observed_record(workload, config)
        for case, (workload, config) in observed_cases().items()
    }
    return {"schema": 1, "results": results, "observed": observed}


def main() -> int:
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

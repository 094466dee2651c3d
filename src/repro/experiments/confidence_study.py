"""Shared collector for Fig. 6/7: per-component prediction outcomes.

Runs the baseline TAGE-SC-L over the workload traces (predictor-only, no
pipeline timing — these figures are about the predictor) and tallies, for
every prediction, the providing component, its raw confidence value, and
whether it mispredicted.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from repro.branch.tage_sc_l import Provider, TageScL
from repro.isa.instruction import BranchClass
from repro.workloads.suite import load_workload


@lru_cache(maxsize=8)
def collect(workloads: tuple[str, ...], n_instructions: int) -> dict:
    """Tally (provider, value-bucket) -> [predictions, mispredictions].

    Returns ``{"buckets": {(provider, bucket): (n, miss)},
    "providers": {provider: (n, miss)}}`` accumulated over all workloads,
    skipping each trace's first half (warm-up).
    """
    buckets: dict[tuple[Provider, int], list[int]] = defaultdict(lambda: [0, 0])
    providers: dict[Provider, list[int]] = defaultdict(lambda: [0, 0])
    for name in workloads:
        trace = load_workload(name, n_instructions).trace
        predictor = TageScL()
        warm = len(trace) // 2
        for i in range(len(trace)):
            branch_class = trace.branch_classes[i]
            if branch_class == BranchClass.COND_DIRECT:
                pc = int(trace.pcs[i])
                taken = bool(trace.takens[i])
                prediction = predictor.predict(pc)
                if i >= warm:
                    miss = prediction.taken != taken
                    bucket = _bucket(prediction)
                    entry = buckets[(prediction.provider, bucket)]
                    entry[0] += 1
                    entry[1] += miss
                    totals = providers[prediction.provider]
                    totals[0] += 1
                    totals[1] += miss
                predictor.update(prediction, taken)
            elif branch_class != BranchClass.NOT_BRANCH:
                predictor.push_unconditional(int(trace.pcs[i]))
    return {
        "buckets": {key: tuple(value) for key, value in buckets.items()},
        "providers": {key: tuple(value) for key, value in providers.items()},
    }


def _bucket(prediction) -> int:
    """Confidence bucket: raw counter for TAGE components, |LSUM| band for
    SC (0: 0-31, 1: 32-63, 2: 64-127, 3: >=128), confidence for the loop
    predictor."""
    provider = prediction.provider
    if provider is Provider.SC:
        magnitude = abs(prediction.sc_lsum)
        if magnitude >= 128:
            return 3
        if magnitude >= 64:
            return 2
        if magnitude >= 32:
            return 1
        return 0
    if provider is Provider.LOOP:
        return prediction.loop_confidence
    if provider in (Provider.BIMODAL, Provider.BIMODAL_1IN8):
        return prediction.bimodal_ctr
    if provider is Provider.ALTBANK:
        return prediction.alt_ctr
    return prediction.hit_ctr

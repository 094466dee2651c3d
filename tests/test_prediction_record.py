"""One prediction record per TAGE-SC-L consult.

``TageScL.predict`` builds a single :class:`TageScLPrediction`; TAGE, the
loop predictor and the statistical corrector each fill their own fields
of it with their one ``predict``.  These tests check that a consult builds
no per-component record, and that every field of the combined record is
what the component reports when it predicts alone from the same state.
"""

from __future__ import annotations

import pytest

import repro.branch.loop as loop_module
import repro.branch.sc as sc_module
import repro.branch.tage as tage_module
from repro.branch.loop import LoopPrediction
from repro.branch.sc import SCPrediction
from repro.branch.tage import TagePrediction
from repro.branch.tage_sc_l import Provider, TageScL, TageScLConfig, TageScLPrediction
from repro.isa.instruction import BranchClass
from repro.workloads import load_workload

#: Weights the intermediate prediction can vote into the SC sum with
#: (``4 + 10 * confidence``, confidence 0..3).
_VOTE_WEIGHTS = (4, 14, 24, 34)


def conditional_stream(n_instructions: int = 8_000) -> list[tuple[int, bool]]:
    trace = load_workload("int_02", n_instructions).trace
    pcs, classes, takens, _, _ = trace.list_columns()
    return [
        (pc, taken)
        for pc, branch_class, taken in zip(pcs, classes, takens)
        if branch_class == BranchClass.COND_DIRECT
    ]


def _forbidden(name: str) -> type:
    class Forbidden:
        def __init__(self) -> None:
            raise AssertionError(f"a TAGE-SC-L consult built a {name}")

    return Forbidden


@pytest.mark.parametrize("config", [TageScLConfig(), TageScLConfig.small()], ids=["main", "alt"])
def test_consult_builds_no_component_record(monkeypatch, config):
    for module, name in (
        (tage_module, "TagePrediction"),
        (loop_module, "LoopPrediction"),
        (sc_module, "SCPrediction"),
    ):
        monkeypatch.setattr(module, name, _forbidden(name))
    bp = TageScL(config)
    alt = bp.make_histories()
    for pc, taken in conditional_stream(3_000):
        pred = bp.predict(pc)
        assert type(pred) is TageScLPrediction
        assert not hasattr(pred, "__dict__")
        bp.predict(pc, histories=alt)
        bp.update(pred, taken)
        alt.push(pc, not taken)


@pytest.mark.parametrize("detached", [False, True], ids=["own-register", "alt-register"])
def test_fields_match_each_component_alone(detached):
    bp = TageScL()
    alt = bp.make_histories()
    histories = alt if detached else None
    providers = set()
    for pc, taken in conditional_stream():
        pred = bp.predict(pc, histories)
        providers.add(pred.provider)

        tage = bp.tage.predict(pc, histories)
        assert {f: getattr(pred, f) for f in TagePrediction.__slots__} == {
            f: getattr(tage, f) for f in TagePrediction.__slots__
        }
        loop = bp.loop.predict(pc)
        assert {f: getattr(pred, f) for f in LoopPrediction.__slots__} == {
            f: getattr(loop, f) for f in LoopPrediction.__slots__
        }
        unweighted = bp.sc.predict(
            pc, pred.intermediate_taken, histories and histories.direction, tage_weight=0
        )
        assert pred.sc_indices == unweighted.sc_indices
        vote = pred.sc_lsum - unweighted.sc_lsum
        assert (vote > 0) == pred.intermediate_taken and abs(vote) in _VOTE_WEIGHTS
        assert pred.sc_taken == (pred.sc_lsum >= 0)

        if pred.provider is Provider.SC:
            assert pred.taken == pred.sc_taken != pred.intermediate_taken
        else:
            assert pred.taken == pred.intermediate_taken
        if pred.loop_confident:
            assert pred.intermediate_taken == pred.loop_taken
            assert pred.provider in (Provider.LOOP, Provider.SC)
        else:
            assert pred.intermediate_taken == pred.tage_taken

        # Train on the predicted path; the alternate register diverges.
        bp.update(pred if histories is None else bp.predict(pc), taken)
        alt.push(pc, not taken)
    # The stream reaches the bimodal, tagged, loop and SC providers.
    assert {Provider.BIMODAL, Provider.HITBANK, Provider.LOOP, Provider.SC} <= providers

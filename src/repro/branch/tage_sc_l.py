"""TAGE-SC-L: the combined conditional branch predictor of the baseline.

Prediction chain (as in Seznec's CBP-5 predictor):

1. TAGE produces a prediction with HitBank/AltBank/bimodal provenance.
2. If the loop predictor has a *confident* entry for the branch, it
   overrides TAGE.
3. The statistical corrector computes its weighted sum (which includes the
   intermediate prediction's vote) and overrides when it confidently
   disagrees.

Every prediction carries its :class:`Provider` — which component had the
final word — and the provider's raw confidence value.  That provenance is
exactly what the paper's Fig. 6/7 measure and what TAGE-Conf / UCP-Conf
classify on (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.branch.loop import LoopPredictor, LoopPrediction
from repro.branch.sc import DEFAULT_SC_LENGTHS, SCPrediction, StatisticalCorrector
from repro.branch.tage import TAGE, TageConfig, TagePrediction
from repro.common.history import BranchHistory


class Provider(Enum):
    """Which component provided the final direction prediction."""

    BIMODAL = "bimodal"
    BIMODAL_1IN8 = "bimodal(>1in8)"  # bimodal with a miss in its last 8
    HITBANK = "hitbank"
    ALTBANK = "altbank"
    LOOP = "loop"
    SC = "sc"


@dataclass(frozen=True)
class TageScLConfig:
    """Geometry of the combined predictor."""

    tage: TageConfig = TageConfig()
    loop_size_bits: int = 6
    sc_size_bits: int = 10
    sc_use_threshold: int = 20

    @classmethod
    def small(cls) -> "TageScLConfig":
        """The ~8KB-class Alt-BP geometry (paper Section IV-F)."""
        return cls(tage=TageConfig.small(), loop_size_bits=4, sc_size_bits=7)

    @property
    def storage_kb(self) -> float:
        """Approximate storage in KB (dominated by the TAGE tables)."""
        sc_bits = 6 * 6 * (1 << self.sc_size_bits)
        loop_bits = (1 << self.loop_size_bits) * 52
        return (self.tage.storage_bits + sc_bits + loop_bits) / 8192


class TageScLPrediction(TagePrediction):
    """The one record a TAGE-SC-L consult fills: TAGE's provenance (the
    base class), the loop and SC fields each component's ``predict``
    writes into it, and the final direction and :class:`Provider`."""

    __slots__ = (
        ("taken", "provider", "intermediate_taken")
        + LoopPrediction.__slots__
        + SCPrediction.__slots__
    )

    @property
    def provider_value(self) -> int:
        """The provider's raw confidence value (counter or SC sum)."""
        if self.provider is Provider.SC:
            return self.sc_lsum
        if self.provider is Provider.LOOP:
            return self.loop_confidence
        return self.provider_ctr


class TageScL:
    """The full TAGE-SC-L predictor with provenance reporting."""

    def __init__(self, config: TageScLConfig | None = None) -> None:
        self.config = config or TageScLConfig()
        #: The one register of the predicted path: TAGE's and the SC's
        #: folds (and those of an ITTAGE built with ``share=``) on it.
        self.histories = BranchHistory(
            capacity=max(self.config.tage.history_lengths()[-1], max(DEFAULT_SC_LENGTHS)) + 1
        )
        self.tage = TAGE(self.config.tage, share=self.histories)
        self.loop = LoopPredictor(self.config.loop_size_bits)
        self.sc = StatisticalCorrector(
            size_bits=self.config.sc_size_bits,
            use_threshold=self.config.sc_use_threshold,
            share=self.histories.direction,
        )

    def make_histories(self) -> BranchHistory:
        """An empty register with the same geometry (for the alternate
        path); build it after every predictor sharing the register."""
        return self.histories.fresh()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(
        self, pc: int, histories: BranchHistory | None = None
    ) -> TageScLPrediction:
        pred = TageScLPrediction()
        # None: each component hashes its own register (the shared one).
        self.tage.predict(pc, histories, pred)

        if pred.tage_provider == "hit":
            provider = Provider.HITBANK
        elif pred.tage_provider == "alt":
            provider = Provider.ALTBANK
        elif self.tage.bimodal.miss_in_last_8:
            provider = Provider.BIMODAL_1IN8
        else:
            provider = Provider.BIMODAL
        intermediate = pred.tage_taken

        self.loop.predict(pc, pred)
        if pred.loop_confident:
            intermediate = pred.loop_taken
            provider = Provider.LOOP

        # The intermediate prediction votes into the SC sum with a weight
        # scaled by its own confidence (as in Seznec's CBP-5 predictor):
        # a saturated TAGE counter is almost never overridden, a weak or
        # loop-less prediction is fair game for the corrector.
        if provider is Provider.LOOP:
            confidence = 3
        elif provider in (Provider.BIMODAL, Provider.BIMODAL_1IN8):
            confidence = 3 if pred.bimodal_ctr in (-2, 1) else 0
        else:
            ctr = pred.provider_ctr
            confidence = ctr if ctr >= 0 else -ctr - 1
        weight = 4 + 10 * confidence
        self.sc.predict(
            pc, intermediate, histories and histories.direction, tage_weight=weight, pred=pred
        )
        final = intermediate
        if self.sc.should_override(pred, intermediate):
            final = pred.sc_taken
            provider = Provider.SC

        pred.taken, pred.provider, pred.intermediate_taken = final, provider, intermediate
        return pred

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def update(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train all components and advance the predicted-path history.

        Called once per resolved conditional branch with its actual
        direction (the pipeline repairs history on mispredictions, so the
        committed history equals the correct-path history).
        """
        self.loop.update(prediction.pc, taken)
        self.sc.update(prediction, taken)
        self.tage.update(prediction, taken)
        self.histories.push(prediction.pc, taken)

    def push_unconditional(self, pc: int) -> None:
        """Insert an always-taken (unconditional) branch into the history."""
        self.histories.push(pc, True)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_kb

    def __repr__(self) -> str:
        return f"TageScL(~{self.storage_kb:.1f}KB)"

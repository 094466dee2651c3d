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


class TageScLPrediction:
    """Combined prediction with full per-component provenance."""

    __slots__ = ("pc", "taken", "provider", "tage", "loop", "sc", "intermediate_taken")

    def __init__(
        self,
        pc: int,
        taken: bool,
        provider: Provider,
        tage: TagePrediction,
        loop: LoopPrediction,
        sc: SCPrediction,
        intermediate_taken: bool,
    ) -> None:
        self.pc = pc
        self.taken = taken
        self.provider = provider
        self.tage = tage
        self.loop = loop
        self.sc = sc
        self.intermediate_taken = intermediate_taken

    @property
    def provider_value(self) -> int:
        """The provider's raw confidence value (counter or SC sum)."""
        if self.provider is Provider.SC:
            return self.sc.lsum
        if self.provider is Provider.LOOP:
            return self.loop.confidence
        return self.tage.provider_ctr


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
        # None: each component hashes its own register (the shared one).
        tage_pred = self.tage.predict(pc, histories)

        if tage_pred.provider == "hit":
            provider = Provider.HITBANK
        elif tage_pred.provider == "alt":
            provider = Provider.ALTBANK
        elif self.tage.bimodal.miss_in_last_8:
            provider = Provider.BIMODAL_1IN8
        else:
            provider = Provider.BIMODAL
        intermediate = tage_pred.taken

        loop_pred = self.loop.predict(pc)
        if loop_pred.valid and loop_pred.confident:
            intermediate = loop_pred.taken
            provider = Provider.LOOP

        # The intermediate prediction votes into the SC sum with a weight
        # scaled by its own confidence (as in Seznec's CBP-5 predictor):
        # a saturated TAGE counter is almost never overridden, a weak or
        # loop-less prediction is fair game for the corrector.
        if provider is Provider.LOOP:
            confidence = 3 if loop_pred.confident else 1
        elif provider in (Provider.BIMODAL, Provider.BIMODAL_1IN8):
            confidence = 3 if tage_pred.bimodal_ctr in (-2, 1) else 0
        else:
            ctr = tage_pred.provider_ctr
            confidence = ctr if ctr >= 0 else -ctr - 1
        weight = 4 + 10 * confidence
        sc_pred = self.sc.predict(
            pc, intermediate, histories and histories.direction, tage_weight=weight
        )
        final = intermediate
        if self.sc.should_override(sc_pred, intermediate):
            final = sc_pred.taken
            provider = Provider.SC
            sc_pred.used = True

        return TageScLPrediction(
            pc, final, provider, tage_pred, loop_pred, sc_pred, intermediate
        )

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def update(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train all components and advance the predicted-path history.

        Called once per resolved conditional branch with its actual
        direction (the pipeline repairs history on mispredictions, so the
        committed history equals the correct-path history).
        """
        self.loop.update(prediction.pc, taken, prediction.loop)
        self.sc.update(prediction.sc, taken)
        self.tage.update(prediction.tage, taken)
        self.histories.push(prediction.pc, taken)

    def push_unconditional(self, pc: int) -> None:
        """Insert an always-taken (unconditional) branch into the history."""
        self.histories.push(pc, True)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_kb

    def __repr__(self) -> str:
        return f"TageScL(~{self.storage_kb:.1f}KB)"

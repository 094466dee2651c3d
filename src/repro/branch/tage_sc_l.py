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

A consult hashes either from a live history register (:meth:`TageScL.predict`)
or from one precomputed row (:meth:`TageScL.consult_row`, rows from
:meth:`TageScL.hash_rows`); the table reads, the loop predictor, the SC
vote and the provider chain are one path for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.branch.loop import LoopPredictor, LoopPrediction
from repro.branch.sc import DEFAULT_SC_LENGTHS, SCPrediction, StatisticalCorrector
from repro.branch.tage import TAGE, TageConfig, TagePrediction
from repro.common.history import BranchHistory, LaneRows, row_dtype


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
        self._n_tables = self.config.tage.n_tables

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
        """Consult with hashes from a live register (the predicted-path
        one by default)."""
        pred = TageScLPrediction()
        # None: each component hashes its own register (the shared one).
        if histories is None:
            self.tage.hash(pc, self.tage.histories, pred)
            self.sc.hash(pc, self.sc.histories, pred)
        else:
            self.tage.hash(pc, histories, pred)
            self.sc.hash(pc, histories.direction, pred)
        self._consult(pc, pred)
        return pred

    def hash_rows(
        self, pcs: npt.NDArray[np.int64], lanes: LaneRows, path: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.unsignedinteger[Any]]:
        """Every consult's hashes at once: row ``k`` is TAGE's indices and
        tags, then the corrector's indices, for ``pcs[k]`` against the
        register state ``lanes[l][k]`` (lane ``l``) and ``path[k]`` (see
        :class:`~repro.common.history.LaneRows`); :meth:`consult_row`
        reads one."""
        n = 2 * self._n_tables
        tage = self.config.tage
        dtype = row_dtype(tage.table_size_bits, tage.tag_bits, self.config.sc_size_bits)
        rows = np.empty((len(pcs), n + len(self.sc.history_lengths)), dtype)
        self.tage.hash_rows(pcs, lanes, path, out=rows[:, :n])
        self.sc.hash_rows(pcs, lanes, out=rows[:, n:])
        return rows

    def consult_row(self, pc: int, row: tuple[int, ...]) -> TageScLPrediction:
        """:meth:`predict` from one :meth:`hash_rows` row."""
        pred = TageScLPrediction()
        n = self._n_tables
        pred.indices, pred.tags, pred.sc_indices = row[:n], row[n : 2 * n], row[2 * n :]
        self._consult(pc, pred)
        return pred

    def _consult(self, pc: int, pred: TageScLPrediction) -> None:
        """The table reads and the provider chain, on hashed ``pred``."""
        self.tage.consult(pc, pred)

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
        self.sc.vote(pred, intermediate, tage_weight=4 + 10 * confidence)
        final = intermediate
        if self.sc.should_override(pred, intermediate):
            final = pred.sc_taken
            provider = Provider.SC

        pred.taken, pred.provider, pred.intermediate_taken = final, provider, intermediate

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def train(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train all components on one resolved conditional branch; the
        history is not pushed (see :meth:`update`)."""
        self.loop.update(prediction.pc, taken)
        self.sc.update(prediction, taken)
        self.tage.update(prediction, taken)

    def update(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train all components and advance the predicted-path history.

        Called once per resolved conditional branch with its actual
        direction (the pipeline repairs history on mispredictions, so the
        committed history equals the correct-path history).
        """
        self.train(prediction, taken)
        self.histories.push(prediction.pc, taken)

    def push_unconditional(self, pc: int) -> None:
        """Insert an always-taken (unconditional) branch into the history."""
        self.histories.push(pc, True)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_kb

    def __repr__(self) -> str:
        return f"TageScL(~{self.storage_kb:.1f}KB)"

"""Statistical corrector — the SC component of TAGE-SC-L.

A GEHL-style bank of signed-counter tables indexed by PC xor folded global
history of several lengths (plus a pure bias table).  The tables vote; the
weighted sum ``LSUM`` — which also includes the intermediate (TAGE/loop)
prediction's vote — decides whether to *revert* the intermediate
prediction.  The magnitude of ``LSUM`` is the SC confidence the paper
buckets in Fig. 6b (output value ranges like 0–31, 32–63, … 128–255).

Like :class:`~repro.branch.tage.TAGE`, the SC hashes against a detachable
:class:`~repro.common.history.GlobalHistory` so UCP's alternate-path
predictor can keep a divergent history without duplicating table state.
Inside TAGE-SC-L its folds share TAGE's register (``share=``), and all
table indices come from the packed lanes in one XOR and one unpack.
"""

from __future__ import annotations

from functools import partial

from repro.common.history import (
    LANE_BITS,
    LANE_BYTEORDER,
    GlobalHistory,
    LaneTerms,
    lane_struct,
    pack_lanes,
)

#: History lengths of the corrector tables (0 = bias table, PC-indexed).
DEFAULT_SC_LENGTHS: tuple[int, ...] = (0, 4, 10, 16, 27, 44)


def sc_lane_term(pc: int, n_tables: int, mask: int) -> int:
    """Per-PC lane term of the corrector's indices: lane ``t`` holds
    ``(pc' ^ pc' >> (t + 3)) & mask`` (``pc' = pc >> 2``)."""
    base = pc >> 2
    return pack_lanes([(base ^ (base >> (t + 3))) & mask for t in range(n_tables)])


class SCPrediction:
    """SC vote for one branch: the sum, its direction and the table
    indices its update trains.

    Set in full by :meth:`StatisticalCorrector.predict`; the fields are
    prefixed because TAGE-SC-L's combined record carries them too.
    """

    __slots__ = ("sc_lsum", "sc_taken", "sc_indices")


class StatisticalCorrector:
    """GEHL-style corrector over global history.

    Counters are 6-bit signed; each contributes ``2*c + 1`` to the sum so a
    zero counter still casts a weak vote.  The intermediate prediction also
    votes, weighted by ``tage_weight``.
    """

    COUNTER_MIN = -32
    COUNTER_MAX = 31

    def __init__(
        self,
        history_lengths: tuple[int, ...] = DEFAULT_SC_LENGTHS,
        size_bits: int = 10,
        tage_weight: int = 8,
        use_threshold: int = 20,
        share: GlobalHistory | None = None,
    ) -> None:
        """``share``: register the folds on this history (whose owner pushes
        it) instead of on a private one."""
        self.history_lengths = history_lengths
        self.size_bits = size_bits
        self.size = 1 << size_bits
        self._mask = self.size - 1
        self.tage_weight = tage_weight
        self.use_threshold = use_threshold
        self._tables = [[0] * self.size for _ in history_lengths]
        # The bias tables (length 0) lead, so the history lanes map onto
        # the tables after them.
        self._n_bias = history_lengths.count(0)
        if any(history_lengths[: self._n_bias]):
            raise ValueError("bias tables (length 0) must come first")
        self.histories = share or GlobalHistory(capacity=max(max(history_lengths), 1) + 1)
        lanes = [
            self.histories.add_folded(length, size_bits)
            for length in history_lengths[self._n_bias :]
        ]
        self._fold_shift = LANE_BITS * min(lanes, default=0)
        self._folds_mask = (1 << (LANE_BITS * len(lanes))) - 1
        self._unpack = lane_struct(len(history_lengths)).unpack
        self._pc_terms = LaneTerms(
            partial(sc_lane_term, n_tables=len(history_lengths), mask=self._mask)
        )

    def make_histories(self) -> GlobalHistory:
        """An empty register with matching geometry."""
        return self.histories.fresh()

    def _indices(self, pc: int, histories: GlobalHistory) -> list[int]:
        """Per-table indices (the reference for :meth:`predict`'s lanes)."""
        base = pc >> 2
        indices = []
        for table in range(len(self.history_lengths)):
            value = base ^ (base >> (table + 3))
            if table >= self._n_bias:
                value ^= histories.lane(self._fold_shift // LANE_BITS + table - self._n_bias)
            indices.append(value & self._mask)
        return indices

    def predict(
        self,
        pc: int,
        intermediate_taken: bool,
        histories: GlobalHistory | None = None,
        tage_weight: int | None = None,
        pred: SCPrediction | None = None,
    ) -> SCPrediction:
        """Fill ``pred`` (a fresh record by default) and return it."""
        histories = histories or self.histories
        if pred is None:
            pred = SCPrediction()
        term = self._pc_terms[pc]
        n_tables = len(self._tables)
        folds = (histories.packed >> self._fold_shift) & self._folds_mask
        pred.sc_indices = indices = self._unpack(
            ((folds << (LANE_BITS * self._n_bias)) ^ term).to_bytes(2 * n_tables, LANE_BYTEORDER)
        )
        # Each counter votes 2*c + 1.
        lsum = 2 * sum(map(list.__getitem__, self._tables, indices)) + n_tables
        weight = self.tage_weight if tage_weight is None else tage_weight
        pred.sc_lsum = lsum = lsum + (weight if intermediate_taken else -weight)
        pred.sc_taken = lsum >= 0
        return pred

    def should_override(self, prediction: SCPrediction, intermediate_taken: bool) -> bool:
        """SC overrides when it disagrees and its sum is confident enough."""
        return (
            prediction.sc_taken != intermediate_taken
            and abs(prediction.sc_lsum) >= self.use_threshold
        )

    def update(self, prediction: SCPrediction, taken: bool) -> None:
        """GEHL update: train on mispredictions and low-confidence sums."""
        correct = prediction.sc_taken == taken
        if correct and abs(prediction.sc_lsum) > 4 * self.use_threshold:
            return
        # Saturating step: counters never leave [COUNTER_MIN, COUNTER_MAX].
        step, bound = (1, self.COUNTER_MAX) if taken else (-1, self.COUNTER_MIN)
        for table, index in zip(self._tables, prediction.sc_indices):
            if table[index] != bound:
                table[index] += step

    def push_history(self, taken: bool) -> None:
        self.histories.push(taken)

    def __repr__(self) -> str:
        return f"StatisticalCorrector({len(self.history_lengths)} tables x {self.size})"

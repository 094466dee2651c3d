"""Hashed perceptron conditional branch predictor.

The paper's related work (Section VII-D) cites Akkary et al.'s
perceptron-based branch confidence estimation [6] as the other family of
storage-free confidence sources besides TAGE counters.  This module
provides that family: a hashed perceptron predictor (Jiménez & Lin style,
with per-table history-hashed weight rows) whose output magnitude doubles
as a confidence estimate.

It implements the same provider-agnostic surface the UCP trigger needs —
``predict`` returning an object with a ``taken`` direction and a
confidence query — so experiments can swap the H2P source between
TAGE-SC-L provenance and perceptron-output thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.branch.tage import pc_lane_terms
from repro.common.history import LANE_BYTEORDER, GlobalHistory, LaneTerms, lane_struct


@dataclass(frozen=True)
class PerceptronConfig:
    n_tables: int = 8
    table_size_bits: int = 10
    weight_bits: int = 6
    #: History bits hashed into table i: geometric from min to max.
    min_history: int = 2
    max_history: int = 128
    #: Training threshold (classic perceptron theta ≈ 1.93*h + 14).
    theta: int | None = None

    def history_lengths(self) -> list[int]:
        if self.n_tables == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.n_tables - 1))
        lengths = []
        for i in range(self.n_tables):
            length = round(self.min_history * ratio**i)
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return lengths

    @property
    def effective_theta(self) -> int:
        if self.theta is not None:
            return self.theta
        return int(1.93 * self.n_tables + 14)

    @property
    def storage_kb(self) -> float:
        bits = self.n_tables * (1 << self.table_size_bits) * self.weight_bits
        return bits / 8192


class PerceptronPrediction:
    """Direction plus the raw vote sum (the confidence signal)."""

    __slots__ = ("pc", "taken", "output", "indices")

    def __init__(self, pc: int, taken: bool, output: int, indices: tuple[int, ...]) -> None:
        self.pc = pc
        self.taken = taken
        self.output = output
        self.indices = indices

    @property
    def magnitude(self) -> int:
        return abs(self.output)

    def low_confidence(self, threshold: int) -> bool:
        """Akkary-style H2P test: a small |output| flags the branch."""
        return self.magnitude < threshold


class HashedPerceptron:
    """Multi-table hashed perceptron over geometric history lengths."""

    def __init__(self, config: PerceptronConfig | None = None) -> None:
        self.config = config or PerceptronConfig()
        size = 1 << self.config.table_size_bits
        self._mask = size - 1
        self._w_max = (1 << (self.config.weight_bits - 1)) - 1
        self._w_min = -(1 << (self.config.weight_bits - 1))
        self._tables = [[0] * size for _ in range(self.config.n_tables)]
        lengths = self.config.history_lengths()
        self.history = GlobalHistory(capacity=lengths[-1] + 1)
        for length in lengths:
            self.history.add_folded(length, self.config.table_size_bits)
        self._unpack = lane_struct(self.config.n_tables).unpack
        # TAGE's index hash without the path term (lane t = table t).
        self._pc_terms = LaneTerms(
            partial(
                pc_lane_terms, n_tables=self.config.n_tables, size_mask=self._mask, tag_mask=0
            )
        )

    def _indices(self, pc: int) -> tuple[int, ...]:
        index_term, _ = self._pc_terms[pc]
        return self._unpack(
            (self.history.packed ^ index_term).to_bytes(2 * self.config.n_tables, LANE_BYTEORDER)
        )

    def predict(self, pc: int) -> PerceptronPrediction:
        indices = self._indices(pc)
        output = sum(map(list.__getitem__, self._tables, indices))
        return PerceptronPrediction(pc, output >= 0, output, indices)

    def update(self, prediction: PerceptronPrediction, taken: bool) -> None:
        """Train on a miss or a below-theta output; push history."""
        mispredicted = prediction.taken != taken
        if mispredicted or prediction.magnitude <= self.config.effective_theta:
            direction = 1 if taken else -1
            for table, index in enumerate(prediction.indices):
                weight = self._tables[table][index] + direction
                self._tables[table][index] = max(self._w_min, min(self._w_max, weight))
        self.history.push(taken)

    def push_unconditional(self, pc: int) -> None:
        self.history.push(True)

    def __repr__(self) -> str:
        return f"HashedPerceptron({self.config.n_tables} tables, ~{self.config.storage_kb:.1f}KB)"


def perceptron_is_h2p(prediction: PerceptronPrediction, threshold: int = 32) -> bool:
    """Perceptron-based H2P classification (Akkary et al. [6]).

    The perceptron output magnitude is proportional to prediction
    certainty; below-threshold magnitudes flag hard-to-predict instances.
    """
    return prediction.low_confidence(threshold)

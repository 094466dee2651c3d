"""Bimodal base predictor — a PC-indexed table of signed saturating counters.

This is TAGE's fallback component.  Following Seznec's storage-free
confidence work (paper Section IV-A), the combined predictor also tracks
whether any of the last eight *bimodal-provided* predictions mispredicted
(the ``>1in8`` condition); that shift register lives here since it is
intrinsically a property of the bimodal provider.
"""

from __future__ import annotations


class BimodalPredictor:
    """Direct-mapped table of 2-bit (by default) signed counters."""

    def __init__(self, size_bits: int = 13, counter_bits: int = 2) -> None:
        if size_bits < 1:
            raise ValueError("size_bits must be positive")
        if counter_bits < 2:
            raise ValueError("counters need at least 2 bits")
        self.size = 1 << size_bits
        self._mask = self.size - 1
        self._min = -(1 << (counter_bits - 1))
        self._max = (1 << (counter_bits - 1)) - 1
        # Initialise weakly not-taken: an unseen conditional is most often a
        # not-taken forward branch (and a real frontend without a BTB entry
        # falls through anyway).
        self._table = [-1] * self.size
        # Correctness (1 = correct) of the last 8 bimodal-provided
        # predictions, newest in bit 0.
        self._recent_outcomes = 0xFF

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def counter(self, pc: int) -> int:
        """Raw signed counter value for ``pc`` (taken iff >= 0)."""
        return self._table[(pc >> 2) & self._mask]

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 0

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self._table[index]
        if taken:
            self._table[index] = min(self._max, value + 1)
        else:
            self._table[index] = max(self._min, value - 1)

    def record_provided(self, correct: bool) -> None:
        """Record the outcome of a prediction the bimodal table provided."""
        self._recent_outcomes = ((self._recent_outcomes << 1) | int(correct)) & 0xFF

    @property
    def miss_in_last_8(self) -> bool:
        """True when any of the last 8 bimodal-provided predictions missed."""
        return self._recent_outcomes != 0xFF

    def __repr__(self) -> str:
        return f"BimodalPredictor(size={self.size})"

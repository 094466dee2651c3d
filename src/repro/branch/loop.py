"""Loop predictor — the L component of TAGE-SC-L.

Captures branches that iterate a constant number of times: once the same
trip count has been observed repeatedly (confidence saturates), the
predictor can call the loop exit exactly.  Per paper Fig. 6b, confident
loop-predictor predictions have a very low miss rate, which is why
UCP-Conf classifies them as high confidence.
"""

from __future__ import annotations


class _LoopEntry:
    __slots__ = ("tag", "past_trip", "current_iter", "confidence", "age")

    def __init__(self) -> None:
        self.tag = -1
        self.past_trip = 0  # learned trip count (0 = unknown)
        self.current_iter = 0
        self.confidence = 0
        self.age = 0


class LoopPrediction:
    """Loop predictor output: only meaningful when ``loop_valid`` is true.

    Set in full by :meth:`LoopPredictor.predict`; the fields are
    prefixed because TAGE-SC-L's combined record carries them too.
    """

    __slots__ = ("loop_valid", "loop_taken", "loop_confident", "loop_confidence")


class LoopPredictor:
    """A small direct-mapped table of loop trip-count monitors."""

    CONFIDENCE_MAX = 7
    AGE_MAX = 7

    def __init__(self, size_bits: int = 6, confidence_threshold: int = 3) -> None:
        self.size = 1 << size_bits
        self._mask = self.size - 1
        self.confidence_threshold = confidence_threshold
        self._entries = [_LoopEntry() for _ in range(self.size)]

    def _lookup(self, pc: int) -> _LoopEntry:
        return self._entries[(pc >> 2) & self._mask]

    def predict(self, pc: int, pred: LoopPrediction | None = None) -> LoopPrediction:
        """Fill ``pred`` (a fresh record by default) and return it."""
        if pred is None:
            pred = LoopPrediction()
        entry = self._lookup(pc)
        if entry.tag != (pc >> 2) or entry.past_trip == 0:
            pred.loop_valid = pred.loop_taken = pred.loop_confident = False
            pred.loop_confidence = 0
            return pred
        pred.loop_valid = True
        # Predict taken until the learned trip count is reached.
        pred.loop_taken = entry.current_iter + 1 < entry.past_trip
        pred.loop_confidence = entry.confidence
        pred.loop_confident = entry.confidence >= self.confidence_threshold
        return pred

    def update(self, pc: int, taken: bool) -> None:
        entry = self._lookup(pc)
        if entry.tag != (pc >> 2):
            # Try to (re)allocate: steal the slot if its current owner aged out.
            if entry.age == 0:
                entry.tag = pc >> 2
                entry.past_trip = 0
                entry.current_iter = 0
                entry.confidence = 0
                entry.age = self.AGE_MAX
            else:
                entry.age -= 1
            return

        entry.age = self.AGE_MAX
        if taken:
            entry.current_iter += 1
            # A loop that exceeds its learned trip count was mislearned.
            if entry.past_trip and entry.current_iter >= entry.past_trip:
                entry.past_trip = 0
                entry.confidence = 0
        else:
            observed_trip = entry.current_iter + 1
            if entry.past_trip == observed_trip:
                entry.confidence = min(self.CONFIDENCE_MAX, entry.confidence + 1)
            else:
                entry.past_trip = observed_trip
                entry.confidence = 0
            entry.current_iter = 0

    def __repr__(self) -> str:
        return f"LoopPredictor(size={self.size})"

"""Branch confidence estimation: TAGE-Conf and UCP-Conf.

Two storage-free hard-to-predict (H2P) classifiers over TAGE-SC-L
prediction provenance:

* :func:`tage_conf_is_h2p` — Seznec's original heuristic (HPCA 2011): a
  prediction is *high confidence* iff its counter is saturated, unless it
  came from the bimodal table and a bimodal-provided prediction missed in
  the last eight.  The heuristic predates SC/LP, so those providers are
  judged by the underlying TAGE counter.
* :func:`ucp_conf_is_h2p` — the paper's improvement (Section IV-A/B):
  additionally treats every AltBank prediction as low confidence, every
  confident loop-predictor prediction as high confidence, and every SC
  override as low confidence.

:class:`ConfidenceStats` accumulates the coverage/accuracy numbers of
paper Fig. 9.
"""

from __future__ import annotations

from repro.branch.tage_sc_l import Provider, TageScLPrediction
from repro.common.stats import StatBlock, percent

#: Saturation bounds of the 3-bit tagged-table counters (-4 & 3) and the
#: 2-bit bimodal counter (-2 & 1).
_TAGGED_SATURATED = (-4, 3)
_BIMODAL_SATURATED = (-2, 1)


def _tage_component_confident(prediction: TageScLPrediction) -> bool:
    """Seznec's rule applied to the TAGE component of the prediction."""
    tage_provider = prediction.tage_provider
    if tage_provider == "hit":
        return prediction.hit_ctr in _TAGGED_SATURATED
    if tage_provider == "alt":
        return prediction.alt_ctr in _TAGGED_SATURATED
    # Bimodal provider: saturated counter, and no recent bimodal miss.
    if prediction.provider is Provider.BIMODAL_1IN8:
        return False
    return prediction.bimodal_ctr in _BIMODAL_SATURATED


def tage_conf_is_h2p(prediction: TageScLPrediction) -> bool:
    """Original TAGE confidence heuristic: H2P iff not high confidence."""
    return not _tage_component_confident(prediction)


def ucp_conf_is_h2p(prediction: TageScLPrediction) -> bool:
    """The paper's improved H2P classifier (Section IV-B).

    A branch instance is H2P if its prediction came from:

    1. bimodal while a bimodal-provided prediction missed in the last 8;
    2. bimodal or HitBank with an unsaturated counter;
    3. the AltBank (always — Fig. 6a shows AltBank misses heavily at any
       counter value);
    4. the SC (always — Fig. 6b shows 10–50% miss rates).

    Confident loop-predictor predictions are high confidence (<3% miss).
    """
    provider = prediction.provider
    if provider is Provider.SC:
        return True
    if provider is Provider.ALTBANK:
        return True
    if provider is Provider.LOOP:
        return False
    if provider is Provider.BIMODAL_1IN8:
        return True
    if provider is Provider.BIMODAL:
        return prediction.bimodal_ctr not in _BIMODAL_SATURATED
    # HitBank.
    return prediction.hit_ctr not in _TAGGED_SATURATED


class ConfidenceStats:
    """Coverage & accuracy accounting for an H2P classifier (Fig. 9).

    * **coverage** — fraction of actual mispredictions flagged H2P;
    * **accuracy** — fraction of H2P-flagged predictions that mispredict.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = StatBlock(name)

    def record(self, flagged_h2p: bool, mispredicted: bool) -> None:
        self.stats.add("predictions")
        if flagged_h2p:
            self.stats.add("flagged")
        if mispredicted:
            self.stats.add("mispredictions")
        if flagged_h2p and mispredicted:
            self.stats.add("flagged_mispredictions")

    @property
    def coverage(self) -> float:
        return percent(self.stats["flagged_mispredictions"], self.stats["mispredictions"])

    @property
    def accuracy(self) -> float:
        return percent(self.stats["flagged_mispredictions"], self.stats["flagged"])

    def __repr__(self) -> str:
        return (
            f"ConfidenceStats({self.name!r}, coverage={self.coverage:.1f}%, "
            f"accuracy={self.accuracy:.1f}%)"
        )

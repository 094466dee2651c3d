"""Branch prediction substrate.

Implements the full prediction stack of the paper's baseline (Table II):

* :mod:`repro.branch.bimodal` — the bimodal base predictor.
* :mod:`repro.branch.tage` — TAGE tagged geometric-history tables, with
  explicit HitBank/AltBank provenance (needed for confidence estimation).
* :mod:`repro.branch.loop` — the loop predictor (L of TAGE-SC-L).
* :mod:`repro.branch.sc` — the statistical corrector (SC of TAGE-SC-L).
* :mod:`repro.branch.tage_sc_l` — the combined TAGE-SC-L predictor that
  reports *which component provided each prediction* (paper Fig. 6/7).
* :mod:`repro.branch.ittage` — ITTAGE indirect target predictor.
* :mod:`repro.branch.btb` — banked set-associative branch target buffer.
* :mod:`repro.branch.ras` — return address stack.
* :mod:`repro.branch.confidence` — TAGE-Conf and the paper's UCP-Conf
  hard-to-predict branch classifiers.
"""

from repro.branch.bimodal import BimodalPredictor
from repro.branch.btb import BTB, BTBConfig, BTBEntry, RegionBTB, make_btb
from repro.branch.confidence import (
    ConfidenceStats,
    tage_conf_is_h2p,
    ucp_conf_is_h2p,
)
from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.loop import LoopPredictor
from repro.branch.perceptron import (
    HashedPerceptron,
    PerceptronConfig,
    perceptron_is_h2p,
)
from repro.branch.ras import ReturnAddressStack
from repro.branch.sc import StatisticalCorrector
from repro.branch.tage import TAGE, TageConfig, TagePrediction
from repro.branch.tage_sc_l import Provider, TageScL, TageScLConfig, TageScLPrediction

__all__ = [
    "BimodalPredictor",
    "TAGE",
    "TageConfig",
    "TagePrediction",
    "LoopPredictor",
    "HashedPerceptron",
    "PerceptronConfig",
    "perceptron_is_h2p",
    "StatisticalCorrector",
    "TageScL",
    "TageScLConfig",
    "TageScLPrediction",
    "Provider",
    "ITTAGE",
    "ITTAGEConfig",
    "BTB",
    "BTBConfig",
    "BTBEntry",
    "RegionBTB",
    "make_btb",
    "ReturnAddressStack",
    "ConfidenceStats",
    "tage_conf_is_h2p",
    "ucp_conf_is_h2p",
]

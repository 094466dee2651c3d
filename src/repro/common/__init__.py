"""Shared low-level building blocks used across the simulator.

This package holds the hardware-flavoured primitives that every other
subsystem is assembled from: saturating counters, global-history registers
with packed folded (CSR) views, LRU replacement state, and statistics helpers.
"""

from repro.common.counters import SaturatingCounter, SignedSaturatingCounter
from repro.common.history import BranchHistory, FoldedHistory, GlobalHistory
from repro.common.lru import LRUSet
from repro.common.output import resolve_output_path
from repro.common.stats import StatBlock, amean, geomean, percent

__all__ = [
    "SaturatingCounter",
    "SignedSaturatingCounter",
    "GlobalHistory",
    "FoldedHistory",
    "BranchHistory",
    "LRUSet",
    "StatBlock",
    "amean",
    "geomean",
    "percent",
    "resolve_output_path",
]

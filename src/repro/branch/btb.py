"""Banked, set-associative Branch Target Buffer.

The baseline is a 64K-entry, 16-bank instruction BTB (paper Table II).
UCP doubles the banking to 32 so the predicted and alternate paths can be
looked up concurrently, arbitrating bank conflicts with a 3-bit delay
counter (Section IV-C); the bank mapping is exposed via :meth:`bank_of` so
the UCP engine can model those conflicts.

Entries are allocated for *taken-at-least-once* branches and record the
branch class and taken target.  Conditional branches that were never taken
don't occupy the BTB (matching how a real BTB only learns of a branch when
it redirects fetch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.isa.instruction import BranchClass

#: What an untouched set reads as.  Never written: ``update`` gives a set
#: its own dict before storing into it.
_NO_ENTRIES: dict[int, Any] = {}


@dataclass(frozen=True)
class BTBConfig:
    n_entries: int = 65536
    ways: int = 8
    n_banks: int = 16
    #: "instruction" — one entry per branch (the paper's baseline);
    #: "region" — one entry covers all taken-at-least-once branches of an
    #: aligned code region, the organisation the paper notes would let the
    #: demand and alternate paths share a single access (Section IV-C).
    organization: str = "instruction"
    #: Region organisation only: bytes covered per entry and the maximum
    #: branches an entry can record.
    region_bytes: int = 64
    region_branches: int = 4

    @property
    def n_sets(self) -> int:
        return self.n_entries // self.ways

    @property
    def storage_kb(self) -> float:
        # ~8B per entry (partial tag + target + type), as in storage-
        # effective BTB literature.
        return self.n_entries * 8 / 1024


class BTBEntry:
    __slots__ = ("pc", "target", "branch_class")

    def __init__(self, pc: int, target: int, branch_class: BranchClass) -> None:
        self.pc = pc
        self.target = target
        self.branch_class = branch_class

    def __repr__(self) -> str:
        return f"BTBEntry(pc={self.pc:#x}, target={self.target:#x}, {self.branch_class.name})"


class BTB:
    """Set-associative BTB with true LRU per set.

    Sets are dicts keyed by full PC; Python's insertion order doubles as
    the LRU order (oldest first), with hits reinserted at the MRU end.  A
    set is allocated by its first update, so the 8K-set baseline costs
    only the sets a run's taken branches reach.
    """

    def __init__(self, config: BTBConfig | None = None) -> None:
        self.config = config or BTBConfig()
        if self.config.n_entries % self.config.ways:
            raise ValueError("n_entries must be a multiple of ways")
        self._n_sets = self.config.n_sets
        #: set index -> {pc: entry} in LRU order, for updated sets only.
        self._sets: dict[int, dict[int, BTBEntry]] = {}
        self.lookups = 0
        self.hits = 0

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) % self._n_sets

    def bank_of(self, pc: int, n_banks: int | None = None) -> int:
        """Bank servicing ``pc`` — consecutive sets stripe across banks."""
        banks = n_banks if n_banks is not None else self.config.n_banks
        return self._set_index(pc) % banks

    def lookup(self, pc: int) -> BTBEntry | None:
        """Query the BTB; hits refresh LRU."""
        self.lookups += 1
        entries = self._sets.get(self._set_index(pc), _NO_ENTRIES)
        entry = entries.get(pc)
        if entry is None:
            return None
        self.hits += 1
        # Move to MRU position.
        del entries[pc]
        entries[pc] = entry
        return entry

    def peek(self, pc: int) -> BTBEntry | None:
        """Query without touching LRU or stats (for instrumentation)."""
        return self._sets.get(self._set_index(pc), _NO_ENTRIES).get(pc)

    def update(self, pc: int, branch_class: BranchClass, target: int) -> None:
        """Install or refresh the entry for a taken branch."""
        index = self._set_index(pc)
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        entry = entries.get(pc)
        if entry is not None:
            entry.target = target
            entry.branch_class = branch_class
            del entries[pc]
            entries[pc] = entry
            return
        if len(entries) >= self.config.ways:
            # Evict LRU (first key in insertion order).
            oldest = next(iter(entries))
            del entries[oldest]
        entries[pc] = BTBEntry(pc, target, branch_class)

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:
        return (
            f"BTB({self.config.n_entries} entries, {self.config.ways}-way, "
            f"{self.config.n_banks} banks)"
        )


class RegionBTB:
    """Region-organised BTB: one entry per aligned code region.

    An entry records up to ``region_branches`` taken-at-least-once branches
    (offset → target/type) of a ``region_bytes``-aligned region.  Both the
    demand and alternate paths of UCP typically walk the *same* regions, so
    a single entry read serves both — the organisation the paper suggests
    as an alternative to doubling the instruction BTB's banking.

    Exposes the same interface as :class:`BTB` (lookup/peek/update/
    bank_of), with region-granular sets and LRU.
    """

    def __init__(self, config: BTBConfig | None = None) -> None:
        self.config = config or BTBConfig(organization="region")
        # Budget parity with the instruction BTB: the same entry count is
        # split into region entries holding region_branches branches each.
        n_region_entries = max(1, self.config.n_entries // self.config.region_branches)
        if n_region_entries % self.config.ways:
            n_region_entries -= n_region_entries % self.config.ways
        self._n_sets = max(1, n_region_entries // self.config.ways)
        #: set -> {region: {offset: BTBEntry}}, allocated by a set's first
        #: update like :class:`BTB`'s.
        self._sets: dict[int, dict[int, dict[int, BTBEntry]]] = {}
        self.lookups = 0
        self.hits = 0

    def _region_of(self, pc: int) -> int:
        return pc // self.config.region_bytes

    def _set_index(self, region: int) -> int:
        return region % self._n_sets

    def bank_of(self, pc: int, n_banks: int | None = None) -> int:
        banks = n_banks if n_banks is not None else self.config.n_banks
        return self._set_index(self._region_of(pc)) % banks

    def _find(self, pc: int, touch: bool) -> BTBEntry | None:
        region = self._region_of(pc)
        entries = self._sets.get(self._set_index(region), _NO_ENTRIES)
        branches = entries.get(region)
        if branches is None:
            return None
        if touch:
            del entries[region]
            entries[region] = branches  # refresh LRU
        return branches.get(pc % self.config.region_bytes)

    def lookup(self, pc: int) -> BTBEntry | None:
        self.lookups += 1
        entry = self._find(pc, touch=True)
        if entry is not None:
            self.hits += 1
        return entry

    def peek(self, pc: int) -> BTBEntry | None:
        return self._find(pc, touch=False)

    def update(self, pc: int, branch_class: BranchClass, target: int) -> None:
        region = self._region_of(pc)
        index = self._set_index(region)
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        branches = entries.get(region)
        if branches is None:
            if len(entries) >= self.config.ways:
                del entries[next(iter(entries))]
            branches = {}
            entries[region] = branches
        offset = pc % self.config.region_bytes
        existing = branches.get(offset)
        if existing is not None:
            existing.target = target
            existing.branch_class = branch_class
        else:
            if len(branches) >= self.config.region_branches:
                # Evict the oldest branch recorded in this region entry.
                del branches[next(iter(branches))]
            branches[offset] = BTBEntry(pc, target, branch_class)
        # Refresh region LRU.
        del entries[region]
        entries[region] = branches

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def __repr__(self) -> str:
        return (
            f"RegionBTB({self._n_sets * self.config.ways} regions x "
            f"{self.config.region_branches} branches)"
        )


def make_btb(config: BTBConfig | None = None):
    """Instantiate the BTB organisation selected by the config."""
    config = config or BTBConfig()
    if config.organization == "region":
        return RegionBTB(config)
    if config.organization == "instruction":
        return BTB(config)
    raise ValueError(f"unknown BTB organization {config.organization!r}")

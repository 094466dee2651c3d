"""Generic set-associative cache level with MSHR miss tracking.

The timing interface is *ready-cycle* based: an access at cycle ``c``
returns the cycle at which the data is available.  Misses to the same line
merge into one in-flight MSHR entry (secondary misses inherit the primary's
ready cycle), and a full MSHR back-pressures new misses until a slot frees —
the behaviour the paper's µ-op-cache MSHR and L1I MSHR exhibit.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

#: What an untouched set reads as.  Never written: only
#: :meth:`SetAssocCache.allocate` stores a line, and it first gives the set
#: its own dict.
_NO_LINES: dict[int, None] = {}


@dataclass(frozen=True)
class CacheConfig:
    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    hit_latency: int = 1
    mshr_entries: int = 16

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_size)
        if sets < 1:
            raise ValueError(f"{self.name}: geometry yields no sets")
        return sets


class SetAssocCache:
    """Tag store with true LRU (dict insertion order) and an MSHR.

    Addresses are *byte* addresses; lines are tracked at ``line_size``
    granularity.  The data payload is irrelevant for timing, so only tags
    are stored.  A set is allocated when its first line is installed, so
    an LLC whose geometry has tens of thousands of sets costs only the
    sets a run touches; :meth:`all_sets` shows every set.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._n_sets = config.n_sets
        #: set index -> {line: None} in LRU order, for touched sets only.
        self._sets: dict[int, dict[int, None]] = {}
        # line -> fill-ready cycle for in-flight misses.
        self._mshr: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_stalls = 0
        #: Optional callback invoked with the evicted line number — used to
        #: maintain inclusivity of structures shadowing this cache (the
        #: L1I-inclusive µ-op cache of paper Section IV-G-2).
        self.on_evict = None
        #: Optional golden reference model
        #: (repro.verify.oracles.RefSetAssocCache) kept in lockstep when
        #: the sim sanitizer is enabled; must stay content-identical.
        self.shadow = None
        #: Hit/miss classification disagreements with the shadow oracle.
        self.shadow_mismatches = 0

    def line_of(self, addr: int) -> int:
        return addr // self.config.line_size

    def _set_index(self, line: int) -> int:
        return line % self._n_sets

    def probe(self, addr: int) -> bool:
        """Tag check without any state change."""
        line = self.line_of(addr)
        return line in self._sets.get(self._set_index(line), _NO_LINES)

    def touch(self, addr: int) -> bool:
        """Tag check that refreshes LRU on hit (no fill on miss)."""
        line = self.line_of(addr)
        entries = self._sets.get(self._set_index(line), _NO_LINES)
        if line in entries:
            del entries[line]
            entries[line] = None
            return True
        return False

    def allocate(self, addr: int) -> None:
        """Install a line (evicting LRU if the set is full)."""
        line = self.line_of(addr)
        index = self._set_index(line)
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = {}
        elif line in entries:
            del entries[line]
        elif len(entries) >= self.config.ways:
            victim = next(iter(entries))
            del entries[victim]
            if self.on_evict is not None:
                self.on_evict(victim)
        entries[line] = None

    def invalidate(self, addr: int) -> bool:
        line = self.line_of(addr)
        if self.shadow is not None:
            self.shadow.invalidate(line)
        entries = self._sets.get(self._set_index(line), _NO_LINES)
        if line in entries:
            del entries[line]
            return True
        return False

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def access(self, addr: int, cycle: int, fill_latency: int) -> tuple[bool, int]:
        """One demand access at ``cycle``.

        On a hit the data is ready ``hit_latency`` later.  On a miss the
        line is fetched with ``fill_latency`` (supplied by the next level),
        merged with any in-flight miss for the same line, and allocated.
        Returns ``(hit, ready_cycle)``.
        """
        line = self.line_of(addr)
        self._drain_mshr(cycle)
        entries = self._sets.get(self._set_index(line), _NO_LINES)
        # A line still in the MSHR was allocated but its fill has not
        # arrived: secondary misses merge and wait for the primary.
        if line in self._mshr:
            self.misses += 1
            self.mshr_merges += 1
            if self.shadow is not None:
                self.shadow.touch(line)  # merge = recency refresh only
            if line in entries:  # refresh LRU
                del entries[line]
                entries[line] = None
            return False, self._mshr[line]

        if line in entries:
            self.hits += 1
            if self.shadow is not None and not self.shadow.access(line):
                self.shadow_mismatches += 1
            del entries[line]
            entries[line] = None
            return True, cycle + self.config.hit_latency

        self.misses += 1
        if self.shadow is not None and self.shadow.access(line):
            self.shadow_mismatches += 1
        start = cycle
        if len(self._mshr) >= self.config.mshr_entries:
            # Back-pressure: the miss cannot start until a slot frees.
            self.mshr_stalls += 1
            start = max(start, min(self._mshr.values()))
        ready = start + self.config.hit_latency + fill_latency
        self._mshr[line] = ready
        self.allocate(addr)
        return False, ready

    def _drain_mshr(self, cycle: int) -> None:
        if not self._mshr:
            return
        done = [line for line, ready in self._mshr.items() if ready <= cycle]
        for line in done:
            del self._mshr[line]

    def all_sets(self) -> list[Mapping[int, None]]:
        """Read-only view of every set in index order, each ``{line: None}``
        in LRU order (oldest first); a set never filled reads empty."""
        sets = self._sets
        return [
            MappingProxyType(sets.get(index, _NO_LINES)) for index in range(self._n_sets)
        ]

    def check_invariants(self) -> None:
        """Sim-sanitizer hook: geometry bounds and oracle agreement."""
        name = self.config.name
        sets = self.all_sets()
        for index, entries in enumerate(sets):
            assert len(entries) <= self.config.ways, (
                f"{name} set {index} holds {len(entries)} lines "
                f"> {self.config.ways} ways"
            )
            for line in entries:
                assert line % self._n_sets == index, (
                    f"{name} line {line} stored in set {index}, "
                    f"belongs in {line % self._n_sets}"
                )
        if self.shadow is not None:
            assert self.shadow_mismatches == 0, (
                f"{name}: {self.shadow_mismatches} hit/miss disagreements "
                f"with the reference cache oracle"
            )
            assert sets == self.shadow.sets, (
                f"{name}: contents diverged from the reference cache oracle"
            )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def __repr__(self) -> str:
        kb = self.config.size_bytes / 1024
        return f"SetAssocCache({self.config.name}, {kb:.0f}KB, {self.config.ways}-way)"

"""Functional golden reference models ("oracles").

Each class here re-implements one hardware structure in the most naive
way possible — plain Python lists, no timing, no clever indexing — so
that the optimized timing-model implementations can be checked against
them, both online (the invariant checker shadows live structures with
these) and offline (property tests drive both implementations with the
same operation sequence and compare every observable).

Keep these *boring*.  An oracle that shares an optimization with the
model it checks can share its bugs too.
"""

from __future__ import annotations


class RefLRU:
    """Reference true-LRU recency order over ``ways`` way indices.

    Mirrors the observable API of :class:`repro.common.lru.LRUSet`:
    ``touch``/``demote``/``victim``/``recency``.
    """

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ValueError("a set needs at least one way")
        self.ways = ways
        self._lru_to_mru = list(range(ways))

    def touch(self, way: int) -> None:
        self._lru_to_mru.remove(way)
        self._lru_to_mru.append(way)

    def demote(self, way: int) -> None:
        self._lru_to_mru.remove(way)
        self._lru_to_mru.insert(0, way)

    def victim(self) -> int:
        return self._lru_to_mru[0]

    def recency(self, way: int) -> int:
        return self._lru_to_mru.index(way)


class RefRAS:
    """Reference return-address stack: a bounded list keeping the newest.

    Semantically equivalent to the circular-buffer
    :class:`repro.branch.ras.ReturnAddressStack`: overflow silently drops
    the oldest entry, underflow returns ``None``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("RAS needs at least one entry")
        self.capacity = capacity
        self._stack: list[int] = []

    def push(self, return_address: int) -> None:
        self._stack.append(return_address)
        if len(self._stack) > self.capacity:
            del self._stack[0]

    def pop(self) -> int | None:
        if not self._stack:
            return None
        return self._stack.pop()

    def peek(self) -> int | None:
        if not self._stack:
            return None
        return self._stack[-1]

    def copy_from(self, other: "RefRAS") -> None:
        self._stack = list(other._stack[-self.capacity:])

    def __len__(self) -> int:
        return len(self._stack)


class RefSetAssocCache:
    """Reference set-associative tag store: hit/miss plus contents, no timing.

    Operates on *line numbers* (the timing model's
    :meth:`~repro.caches.cache.SetAssocCache.line_of` granularity).  The
    per-set structure matches the timing model's
    :meth:`~repro.caches.cache.SetAssocCache.all_sets` view (a list of
    ``{line: None}`` sets in index order), so live shadow comparison is
    one ``==``.
    """

    def __init__(self, n_sets: int, ways: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.sets: list[dict[int, None]] = [dict() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    def _set(self, line: int) -> dict[int, None]:
        return self.sets[line % self.n_sets]

    def access(self, line: int) -> bool:
        """One access: refresh LRU on hit, allocate (evicting LRU) on miss."""
        entries = self._set(line)
        if line in entries:
            self.hits += 1
            del entries[line]
            entries[line] = None
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            del entries[next(iter(entries))]
        entries[line] = None
        return False

    def touch(self, line: int) -> bool:
        """Recency refresh without allocation (MSHR-merge semantics)."""
        entries = self._set(line)
        if line not in entries:
            return False
        del entries[line]
        entries[line] = None
        return True

    def contains(self, line: int) -> bool:
        return line in self._set(line)

    def invalidate(self, line: int) -> None:
        self._set(line).pop(line, None)


def reference_commit_stream(n_instructions: int) -> list[int]:
    """The architectural commit order of an ``n``-instruction trace.

    The simulator replays a recorded correct-path trace with no wrong-path
    execution, so *whatever the timing model does*, the retired
    instruction sequence must be exactly the trace indices in order.
    Every timing feature (UCP, prefetchers, MRC, idealisations) is
    microarchitectural only; this is the differential harness's ground
    truth.
    """
    return list(range(n_instructions))

"""Property tests: optimized structures vs their naive reference models.

Hypothesis drives both implementations with the same random operation
sequence and compares every observable after each step.  Guarded with
``importorskip`` so environments without hypothesis still run the rest of
tier-1.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.branch.ras import ReturnAddressStack  # noqa: E402
from repro.caches.cache import CacheConfig, SetAssocCache  # noqa: E402
from repro.common.lru import LRUSet  # noqa: E402
from repro.verify.oracles import RefLRU, RefRAS, RefSetAssocCache  # noqa: E402

MAX_EXAMPLES = 60


class TestLRUSetVsReference:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        ways=st.integers(min_value=1, max_value=8),
        ops=st.lists(
            st.tuples(st.sampled_from(["touch", "demote"]), st.integers(0, 7)),
            max_size=40,
        ),
    )
    def test_same_victim_and_recency(self, ways, ops):
        live = LRUSet(ways)
        ref = RefLRU(ways)
        for op, way in ops:
            if way >= ways:
                continue
            getattr(live, op)(way)
            getattr(ref, op)(way)
            assert live.victim() == ref.victim()
            for candidate in range(ways):
                assert live.recency(candidate) == ref.recency(candidate)


class TestRASVsReference:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.integers(1, 1 << 20)),
                st.tuples(st.just("pop"), st.just(0)),
            ),
            max_size=50,
        ),
    )
    def test_same_top_depth_and_pops(self, capacity, ops):
        """Circular-buffer RAS == bounded-list RAS for every sequence,
        including overflow wrap-around and underflow."""
        live = ReturnAddressStack(capacity)
        ref = RefRAS(capacity)
        for op, address in ops:
            if op == "push":
                live.push(address)
                ref.push(address)
            else:
                assert live.pop() == ref.pop()
            assert len(live) == len(ref)
            assert live.peek() == ref.peek()

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        pushes=st.lists(st.integers(1, 1 << 20), max_size=30),
        small=st.integers(min_value=1, max_value=4),
    )
    def test_copy_from_keeps_newest(self, pushes, small):
        """Alt-RAS initialisation: copying a big RAS into a small one keeps
        exactly the newest entries, in both implementations."""
        live_src, ref_src = ReturnAddressStack(16), RefRAS(16)
        for address in pushes:
            live_src.push(address)
            ref_src.push(address)
        live_dst, ref_dst = ReturnAddressStack(small), RefRAS(small)
        live_dst.copy_from(live_src)
        ref_dst.copy_from(ref_src)
        assert len(live_dst) == len(ref_dst)
        while len(ref_dst):
            assert live_dst.pop() == ref_dst.pop()


class TestCacheVsReference:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=63), max_size=80),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_same_classification_and_contents(self, lines, ways):
        """Untimed path (touch/allocate) vs the reference: identical
        hit/miss verdicts and identical tag-store contents throughout."""
        config = CacheConfig("toy", size_bytes=8 * 64 * ways, ways=ways)
        live = SetAssocCache(config)
        ref = RefSetAssocCache(config.n_sets, ways)
        for line in lines:
            addr = line * config.line_size
            hit = live.touch(addr)
            if not hit:
                live.allocate(addr)
            assert hit == ref.access(line)
            assert live.all_sets() == ref.sets

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=31), max_size=60))
    def test_timed_access_agrees_when_serialised(self, lines):
        """The timed ``access`` path (with MSHR drained between accesses)
        must classify exactly like the functional oracle."""
        config = CacheConfig("toy", size_bytes=4 * 64 * 2, ways=2, hit_latency=1)
        live = SetAssocCache(config)
        ref = RefSetAssocCache(config.n_sets, config.ways)
        cycle = 0
        for line in lines:
            hit, _ready = live.access(line * config.line_size, cycle, fill_latency=1)
            assert hit == ref.access(line)
            cycle += 1_000  # let every fill land before the next access
        assert live.all_sets() == ref.sets

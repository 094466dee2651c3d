"""Cross-cutting hypothesis property tests on core structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches import CacheConfig, SetAssocCache, UopCache, UopCacheConfig, UopCacheEntry
from repro.caches.uopcache import REGION_BYTES
from repro.workloads import WorkloadConfig, generate_trace


class TestCacheProperties:
    @given(
        accesses=st.lists(st.integers(0, 63), min_size=1, max_size=120),
        ways=st.integers(1, 4),
    )
    def test_set_occupancy_never_exceeds_ways(self, accesses, ways):
        cache = SetAssocCache(
            CacheConfig("p", size_bytes=64 * ways * 4, ways=ways, mshr_entries=64)
        )
        cycle = 0
        for slot in accesses:
            cache.access(slot * 64, cycle, fill_latency=3)
            cycle += 10
        sets = cache.all_sets()
        assert len(sets) == cache.config.n_sets
        for entries in sets:
            assert len(entries) <= ways

    @given(accesses=st.lists(st.integers(0, 31), min_size=1, max_size=80))
    def test_ready_cycle_never_in_past(self, accesses):
        cache = SetAssocCache(CacheConfig("p", size_bytes=4096, ways=4))
        cycle = 0
        for slot in accesses:
            _hit, ready = cache.access(slot * 64, cycle, fill_latency=7)
            assert ready > cycle
            cycle += 2

    @given(accesses=st.lists(st.integers(0, 31), min_size=2, max_size=80))
    def test_repeat_access_eventually_hits(self, accesses):
        cache = SetAssocCache(CacheConfig("p", size_bytes=64 * 1024, ways=16))
        cycle = 0
        seen = set()
        for slot in accesses:
            hit, ready = cache.access(slot * 64, cycle, fill_latency=5)
            # With ample capacity, any previously accessed line whose fill
            # completed must hit.
            if slot in seen:
                assert hit or ready > cycle
            seen.add(slot)
            cycle = max(cycle + 1, ready + 1)


class TestUopCacheProperties:
    @given(
        starts=st.lists(st.integers(0, 400), min_size=1, max_size=120),
        ways=st.integers(1, 4),
    )
    def test_set_occupancy_bounded(self, starts, ways):
        cache = UopCache(UopCacheConfig(n_sets=8, ways=ways))
        for start in starts:
            pc = 0x1000 + 4 * start
            cache.insert(UopCacheEntry(pc, 4, pc + 16))
        for entries in cache._sets:
            assert len(entries) <= ways

    @given(starts=st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_probe_agrees_with_lookup(self, starts):
        cache = UopCache(UopCacheConfig(n_sets=4, ways=2))
        for start in starts:
            pc = 0x1000 + REGION_BYTES * start
            cache.insert(UopCacheEntry(pc, 4, pc + 16))
            assert cache.probe(pc)
            assert cache.lookup(pc) is not None


class TestWalkerProperties:
    @settings(deadline=None, max_examples=8)
    @given(
        seed=st.integers(0, 10_000),
        loop_fraction=st.floats(0.0, 0.5),
        h2p=st.floats(0.0, 0.3),
    )
    def test_walker_always_terminates_and_validates(self, seed, loop_fraction, h2p):
        config = WorkloadConfig(
            name="prop",
            seed=seed,
            n_functions=8,
            n_instructions=2_000,
            loop_fraction=loop_fraction,
            h2p_fraction=h2p,
        )
        trace = generate_trace(config)
        trace.validate()
        assert len(trace) == 2_000

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(0, 1_000))
    def test_call_depth_bounded_by_levels(self, seed):
        config = WorkloadConfig(
            name="depth", seed=seed, n_functions=20, call_depth_levels=4,
            n_instructions=3_000,
        )
        trace = generate_trace(config)
        depth = max_depth = 0
        for entry in trace:
            if entry.branch_class.is_call:
                depth += 1
                max_depth = max(max_depth, depth)
            elif entry.branch_class.is_return:
                depth -= 1
        # Dispatcher + one call per level at most.
        assert max_depth <= 1 + 4

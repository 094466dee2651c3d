"""Tests for individual branch-prediction components."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.branch.bimodal import BimodalPredictor
from repro.branch.btb import BTB, BTBConfig
from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.loop import LoopPredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.sc import StatisticalCorrector
from repro.branch.tage import TAGE, TageConfig
from repro.isa import BranchClass


class TestBimodal:
    def test_initially_predicts_not_taken(self):
        predictor = BimodalPredictor(size_bits=4)
        assert predictor.predict(0x1000) is False

    def test_learns_taken(self):
        predictor = BimodalPredictor(size_bits=8)
        for _ in range(3):
            predictor.update(0x1000, True)
        assert predictor.predict(0x1000) is True

    def test_hysteresis(self):
        predictor = BimodalPredictor(size_bits=8)
        for _ in range(4):
            predictor.update(0x1000, True)  # saturate at +1
        predictor.update(0x1000, False)  # drop to 0: still taken
        assert predictor.predict(0x1000) is True
        predictor.update(0x1000, False)
        assert predictor.predict(0x1000) is False

    def test_miss_in_last_8(self):
        predictor = BimodalPredictor(size_bits=4)
        assert predictor.miss_in_last_8 is False
        predictor.record_provided(False)
        assert predictor.miss_in_last_8 is True
        for _ in range(8):
            predictor.record_provided(True)
        assert predictor.miss_in_last_8 is False

    def test_counter_range(self):
        predictor = BimodalPredictor(size_bits=4, counter_bits=2)
        for _ in range(10):
            predictor.update(0x0, True)
        assert predictor.counter(0x0) == 1
        for _ in range(10):
            predictor.update(0x0, False)
        assert predictor.counter(0x0) == -2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BimodalPredictor(size_bits=0)
        with pytest.raises(ValueError):
            BimodalPredictor(size_bits=4, counter_bits=1)


class TestTageCore:
    def test_history_lengths_monotonic(self):
        for config in (TageConfig(), TageConfig.small()):
            lengths = config.history_lengths()
            assert lengths == sorted(lengths)
            assert len(set(lengths)) == len(lengths)
            assert lengths[0] == config.min_history

    def test_storage_small_below_large(self):
        assert TageConfig.small().storage_bits < TageConfig().storage_bits

    def test_learns_alternating_pattern(self):
        tage = TAGE(TageConfig(n_tables=6, max_history=40))
        misses = 0
        for i in range(2000):
            taken = i % 2 == 0
            pred = tage.predict(0x1000)
            if i > 500 and pred.tage_taken != taken:
                misses += 1
            tage.update(pred, taken)
            tage.push_history(0x1000, taken)
        assert misses < 20

    def test_provenance_reported(self):
        tage = TAGE(TageConfig(n_tables=4))
        pred = tage.predict(0x1000)
        assert pred.tage_provider == "bimodal"  # empty tables
        assert pred.hit_bank is None
        # After training on a history-dependent branch, tagged entries
        # should start providing.
        providers = set()
        for i in range(3000):
            taken = (i % 3) == 0
            pred = tage.predict(0x2000)
            providers.add(pred.tage_provider)
            tage.update(pred, taken)
            tage.push_history(0x2000, taken)
        assert "hit" in providers

    def test_detached_history_prediction(self):
        tage = TAGE(TageConfig(n_tables=4))
        alt = tage.make_histories()
        # Same state initially: identical predictions.
        main_pred = tage.predict(0x1000)
        alt_pred = tage.predict(0x1000, histories=alt)
        assert main_pred.indices == alt_pred.indices
        # Diverge alt history: indices change.
        for _ in range(10):
            alt.push(0x1000, True)
        diverged = tage.predict(0x1000, histories=alt)
        assert diverged.indices != main_pred.indices

    def test_copy_from_resyncs(self):
        tage = TAGE(TageConfig(n_tables=4))
        alt = tage.make_histories()
        for i in range(30):
            tage.push_history(0x1000 + 4 * i, i % 2 == 0)
        alt.copy_from(tage.histories)
        a = tage.predict(0x4000)
        b = tage.predict(0x4000, histories=alt)
        assert a.indices == b.indices and a.tags == b.tags


class TestLoopPredictor:
    def test_learns_fixed_trip(self):
        loop = LoopPredictor()
        misses = 0
        iteration = 0
        for i in range(800):
            taken = iteration < 6  # trip count 7
            pred = loop.predict(0x1000)
            if i > 200:
                assert pred.loop_valid
                if pred.loop_confident and pred.loop_taken != taken:
                    misses += 1
            loop.update(0x1000, taken)
            iteration = iteration + 1 if taken else 0
        assert misses == 0

    def test_invalid_until_allocated(self):
        loop = LoopPredictor()
        assert loop.predict(0x1000).loop_valid is False

    def test_variable_trip_never_confident(self):
        loop = LoopPredictor()
        rng = random.Random(0)
        iteration, trip = 0, rng.randint(2, 9)
        confident_wrong = 0
        for _ in range(2000):
            taken = iteration + 1 < trip
            pred = loop.predict(0x2000)
            if pred.loop_valid and pred.loop_confident and pred.loop_taken != taken:
                confident_wrong += 1
            loop.update(0x2000, taken)
            if taken:
                iteration += 1
            else:
                iteration, trip = 0, rng.randint(2, 9)
        # Random trips must not yield a stream of confident wrong predictions.
        assert confident_wrong < 40

    def test_aging_allows_replacement(self):
        loop = LoopPredictor(size_bits=1)  # tiny: force conflicts
        for _ in range(40):
            loop.predict(0x1000)
            loop.update(0x1000, True)
            loop.predict(0x1000 + (1 << 9))  # conflicting pc
            loop.update(0x1000 + (1 << 9), True)
        # No crash and entries age; nothing more to assert structurally.


class TestStatisticalCorrector:
    def test_learns_bias_against_tage(self):
        sc = StatisticalCorrector(size_bits=6, use_threshold=10)
        # TAGE always says taken; the branch is always not-taken.
        for _ in range(200):
            pred = sc.predict(0x1000, intermediate_taken=True)
            sc.update(pred, False)
            sc.push_history(False)
        pred = sc.predict(0x1000, intermediate_taken=True)
        assert pred.sc_taken is False
        assert sc.should_override(pred, True)

    def test_no_override_when_agreeing(self):
        sc = StatisticalCorrector(size_bits=6)
        pred = sc.predict(0x1000, intermediate_taken=True)
        if pred.sc_taken:
            assert not sc.should_override(pred, True)

    def test_detached_histories(self):
        sc = StatisticalCorrector(size_bits=6)
        alt = sc.make_histories()
        for _ in range(20):
            sc.push_history(True)
        alt.copy_from(sc.histories)
        a = sc.predict(0x2000, True)
        b = sc.predict(0x2000, True, histories=alt)
        assert a.sc_indices == b.sc_indices
        alt.push(False)
        c = sc.predict(0x2000, True, histories=alt)
        assert c.sc_indices != a.sc_indices

    def test_counters_bounded(self):
        sc = StatisticalCorrector(size_bits=4)
        for _ in range(200):
            pred = sc.predict(0x1000, True)
            sc.update(pred, True)
        for table in sc._tables:
            assert all(sc.COUNTER_MIN <= c <= sc.COUNTER_MAX for c in table)


class TestITTAGE:
    def test_learns_stable_target(self):
        ittage = ITTAGE(ITTAGEConfig.small())
        for _ in range(50):
            pred = ittage.predict(0x1000)
            ittage.update(pred, 0x2000)
            ittage.push_history(0x1000, True)
        assert ittage.predict(0x1000).target == 0x2000

    def test_learns_history_dependent_targets(self):
        # Target alternates based on a preceding conditional direction.
        ittage = ITTAGE()
        misses = 0
        for i in range(3000):
            direction = (i % 2) == 0
            ittage.push_history(0x500, direction)
            pred = ittage.predict(0x1000)
            actual = 0x2000 if direction else 0x3000
            if i > 1500 and pred.target != actual:
                misses += 1
            ittage.update(pred, actual)
            ittage.push_history(0x1000, True)
        assert misses < 30

    def test_unknown_pc_predicts_none(self):
        ittage = ITTAGE(ITTAGEConfig.small())
        assert ittage.predict(0x9999000).target is None

    def test_storage_small_below_large(self):
        assert ITTAGEConfig.small().storage_bits < ITTAGEConfig().storage_bits


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(BTBConfig(n_entries=64, ways=4))
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, BranchClass.UNCOND_DIRECT, 0x2000)
        entry = btb.lookup(0x1000)
        assert entry is not None
        assert entry.target == 0x2000
        assert entry.branch_class is BranchClass.UNCOND_DIRECT

    def test_lru_eviction(self):
        btb = BTB(BTBConfig(n_entries=8, ways=2))  # 4 sets
        set_stride = 4 * btb.config.n_sets  # PCs mapping to the same set
        pcs = [0x1000 + i * set_stride for i in range(3)]
        btb.update(pcs[0], BranchClass.UNCOND_DIRECT, 0x1)
        btb.update(pcs[1], BranchClass.UNCOND_DIRECT, 0x2)
        btb.lookup(pcs[0])  # refresh LRU
        btb.update(pcs[2], BranchClass.UNCOND_DIRECT, 0x3)  # evicts pcs[1]
        assert btb.peek(pcs[0]) is not None
        assert btb.peek(pcs[1]) is None
        assert btb.peek(pcs[2]) is not None

    def test_update_refreshes_target(self):
        btb = BTB(BTBConfig(n_entries=64, ways=4))
        btb.update(0x1000, BranchClass.CALL_INDIRECT, 0x2000)
        btb.update(0x1000, BranchClass.CALL_INDIRECT, 0x3000)
        assert btb.peek(0x1000).target == 0x3000

    def test_bank_mapping_stable_and_bounded(self):
        btb = BTB(BTBConfig(n_banks=16))
        for pc in range(0x1000, 0x2000, 4):
            bank = btb.bank_of(pc)
            assert 0 <= bank < 16
            assert bank == btb.bank_of(pc)

    def test_bank_override(self):
        btb = BTB(BTBConfig(n_banks=16))
        assert btb.bank_of(0x1000, n_banks=32) < 32

    def test_hit_rate_counting(self):
        btb = BTB(BTBConfig(n_entries=64, ways=4))
        btb.update(0x1000, BranchClass.UNCOND_DIRECT, 0x2000)
        btb.lookup(0x1000)
        btb.lookup(0x2000)
        assert btb.hit_rate == 0.5

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BTB(BTBConfig(n_entries=10, ways=4))


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(capacity=8)
        ras.push(0x1000)
        ras.push(0x2000)
        assert ras.pop() == 0x2000
        assert ras.pop() == 0x1000
        assert ras.pop() is None

    def test_peek(self):
        ras = ReturnAddressStack(capacity=4)
        assert ras.peek() is None
        ras.push(0x1234)
        assert ras.peek() == 0x1234
        assert len(ras) == 1

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(capacity=2)
        ras.push(0x1)
        ras.push(0x2)
        ras.push(0x3)  # overwrites 0x1
        assert ras.pop() == 0x3
        assert ras.pop() == 0x2
        assert ras.pop() is None

    def test_copy_from_same_size(self):
        main = ReturnAddressStack(capacity=8)
        alt = ReturnAddressStack(capacity=8)
        for address in (0x1, 0x2, 0x3):
            main.push(address)
        alt.copy_from(main)
        assert alt.pop() == 0x3
        assert alt.pop() == 0x2
        # Original untouched.
        assert main.pop() == 0x3

    def test_copy_from_smaller_keeps_newest(self):
        main = ReturnAddressStack(capacity=64)
        alt = ReturnAddressStack(capacity=2)
        for address in range(1, 11):
            main.push(address)
        alt.copy_from(main)
        assert alt.pop() == 10
        assert alt.pop() == 9
        assert alt.pop() is None

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=60))
    def test_never_underflows(self, ops):
        ras = ReturnAddressStack(capacity=4)
        model: list[int] = []
        for index, op in enumerate(ops):
            if op == "push":
                ras.push(index * 4)
                model.append(index * 4)
                model[:] = model[-4:]
            else:
                expected = model.pop() if model else None
                assert ras.pop() == expected

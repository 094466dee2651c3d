"""Unit tests for the UCP engine, Table I weights, and the MRC baseline."""

import math
from dataclasses import replace

import pytest

from repro.branch.tage_sc_l import Provider, TageScLPrediction
from repro.core import SimConfig, Simulator
from repro.core.configs import UCPConfig
from repro.core.mrc import MRC
from repro.core.weights import INFINITE, condition_weight, target_weight
from repro.workloads import load_workload


def make_prediction(provider, hit_ctr=0, alt_ctr=0, bimodal_ctr=0, lsum=0, loop_conf=0):
    pred = TageScLPrediction()
    pred.provider, pred.taken = provider, True
    pred.hit_ctr, pred.alt_ctr, pred.bimodal_ctr = hit_ctr, alt_ctr, bimodal_ctr
    pred.loop_confidence = loop_conf
    pred.sc_lsum = lsum
    return pred


class TestConditionWeights:
    """Table I, Condition rows."""

    def test_bimodal_weights(self):
        assert condition_weight(make_prediction(Provider.BIMODAL, bimodal_ctr=1)) == 1
        assert condition_weight(make_prediction(Provider.BIMODAL, bimodal_ctr=-2)) == 1
        assert condition_weight(make_prediction(Provider.BIMODAL, bimodal_ctr=0)) == 2
        assert condition_weight(make_prediction(Provider.BIMODAL, bimodal_ctr=-1)) == 2

    def test_bimodal_1in8_weights(self):
        assert condition_weight(make_prediction(Provider.BIMODAL_1IN8, bimodal_ctr=1)) == 2
        assert condition_weight(make_prediction(Provider.BIMODAL_1IN8, bimodal_ctr=0)) == 6

    def test_hitbank_weights(self):
        expectations = {3: 1, -4: 1, 2: 3, -3: 3, 1: 4, -2: 4, 0: 6, -1: 6}
        for counter, weight in expectations.items():
            prediction = make_prediction(Provider.HITBANK, hit_ctr=counter)
            assert condition_weight(prediction) == weight, counter

    def test_altbank_weights(self):
        assert condition_weight(make_prediction(Provider.ALTBANK, alt_ctr=3)) == 5
        assert condition_weight(make_prediction(Provider.ALTBANK, alt_ctr=-4)) == 5
        assert condition_weight(make_prediction(Provider.ALTBANK, alt_ctr=0)) == 7
        assert condition_weight(make_prediction(Provider.ALTBANK, alt_ctr=-2)) == 7

    def test_loop_weight(self):
        assert condition_weight(make_prediction(Provider.LOOP)) == 1

    def test_sc_weights(self):
        assert condition_weight(make_prediction(Provider.SC, lsum=200)) == 3
        assert condition_weight(make_prediction(Provider.SC, lsum=-100)) == 6
        assert condition_weight(make_prediction(Provider.SC, lsum=40)) == 8
        assert condition_weight(make_prediction(Provider.SC, lsum=10)) == 10


class TestTargetWeights:
    """Table I, Target rows."""

    def test_btb_miss_is_infinite(self):
        assert target_weight(False, False, False, True) == INFINITE

    def test_btb_hit_is_free(self):
        assert target_weight(True, False, False, True) == 0

    def test_indirect(self):
        assert target_weight(False, True, False, has_alt_ind=True) == 1
        assert math.isinf(target_weight(False, True, False, has_alt_ind=False))

    def test_return(self):
        assert target_weight(False, False, True, has_alt_ind=False) == 1


class TestMRC:
    def test_miss_then_hit_returns_recorded_index(self):
        mrc = MRC(4)
        assert mrc.access(0x1000, recorded_index=42) is None
        assert mrc.access(0x1000, recorded_index=99) == 42
        assert mrc.hits == 1 and mrc.misses == 1

    def test_lru_eviction(self):
        mrc = MRC(2)
        mrc.access(0x1, 1)
        mrc.access(0x2, 2)
        mrc.access(0x1)  # refresh
        mrc.access(0x3, 3)  # evicts 0x2 (LRU)
        assert mrc.access(0x2, 20) is None  # re-allocates 0x2, evicting 0x1
        assert mrc.access(0x3) == 3

    def test_storage_scaling(self):
        assert MRC(128).storage_kb == pytest.approx(2 * MRC(64).storage_kb)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MRC(0)


def ucp_simulator(name="srv_04", n=10_000, **overrides):
    trace = load_workload(name, n).trace
    config = replace(SimConfig(), ucp=UCPConfig(enabled=True, **overrides))
    return Simulator(trace, config)


class TestUCPEngine:
    def test_storage_budget_matches_paper(self):
        assert UCPConfig(enabled=True).storage_kb == pytest.approx(12.95, abs=0.35)
        assert UCPConfig(enabled=True, use_indirect=False).storage_kb == pytest.approx(
            8.95, abs=0.35
        )

    def test_walks_triggered_by_h2p(self):
        sim = ucp_simulator()
        result = sim.run()
        assert result.window.get("ucp_h2p_triggers", 0) > 0
        assert result.window.get("ucp_walks_started", 0) > 0
        # Not every trigger starts a walk (missing BTB target).
        assert (
            result.window["ucp_walks_started"]
            <= result.window["ucp_h2p_triggers"]
        )

    def test_prefetched_entries_marked(self):
        sim = ucp_simulator()
        result = sim.run()
        assert result.window.get("prefetch_insertions", 0) >= result.window.get(
            "ucp_entries_prefetched", 0
        )

    def test_stop_reasons_recorded(self):
        sim = ucp_simulator(n=14_000)
        result = sim.run()
        stop_total = sum(
            value for key, value in result.window.items() if key.startswith("ucp_stop_")
        )
        assert stop_total > 0

    def test_tiny_threshold_stops_earlier(self):
        big = ucp_simulator(stop_threshold=4096).run()
        small = ucp_simulator(stop_threshold=8).run()
        assert small.window.get("ucp_stop_threshold", 0) > big.window.get(
            "ucp_stop_threshold", 0
        )

    def test_walk_generates_aligned_entries(self):
        sim = ucp_simulator()
        engine = sim.ucp
        inserted = []
        original = sim.uop_cache.insert

        def spy(entry):
            if entry.from_prefetch:
                inserted.append(entry)
            return original(entry)

        sim.uop_cache.insert = spy
        sim.run()
        assert inserted, "UCP never inserted a prefetched entry"
        for entry in inserted:
            assert 1 <= entry.n_uops <= 8
            assert entry.start_pc % 4 == 0
            # Entries never span a 32B region boundary.
            assert entry.start_pc // 32 == entry.end_pc // 32

    def test_no_indirect_stops_at_indirect_branches(self):
        with_ind = ucp_simulator(n=12_000, use_indirect=True).run()
        without = ucp_simulator(n=12_000, use_indirect=False).run()
        assert without.window.get("ucp_stop_indirect_no_predictor", 0) >= 0
        # The no-Alt-Ind flavour can never resolve an indirect target.
        assert with_ind.window.get("ucp_stop_indirect_no_predictor", 0) == 0

    def test_alt_histories_diverge_and_resync(self):
        sim = ucp_simulator(n=4_000)
        engine = sim.ucp
        # Push some predicted-path history.
        for i in range(20):
            engine.on_unconditional(0x2000 + 4 * i)
        engine.alt_histories.copy_from(engine.alt_bp.histories)
        a = engine.alt_bp.predict(0x5000)
        b = engine.alt_bp.predict(0x5000, histories=engine.alt_histories)
        assert a.indices == b.indices
        engine.alt_histories.push(0x5000, True)
        c = engine.alt_bp.predict(0x5000, histories=engine.alt_histories)
        assert c.indices != a.indices

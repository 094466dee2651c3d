"""Tests for the combined TAGE-SC-L predictor and confidence estimation."""

import random

import pytest

from repro.branch import (
    ConfidenceStats,
    Provider,
    TageScL,
    TageScLConfig,
    tage_conf_is_h2p,
    ucp_conf_is_h2p,
)


def train(predictor: TageScL, pc: int, outcomes, record=None) -> None:
    for taken in outcomes:
        pred = predictor.predict(pc)
        if record is not None:
            record.append((pred, taken))
        predictor.update(pred, taken)


class TestTageScLLearning:
    def test_learns_period_pattern(self):
        bp = TageScL()
        pattern = [True, True, False, True, False, False]
        misses = 0
        for i in range(3000):
            taken = pattern[i % len(pattern)]
            pred = bp.predict(0x1000)
            if i > 600 and pred.taken != taken:
                misses += 1
            bp.update(pred, taken)
        assert misses < 10

    def test_learns_fixed_loop_via_loop_predictor(self):
        bp = TageScL()
        iteration = 0
        loop_provided = 0
        misses = 0
        for i in range(4000):
            taken = iteration < 9  # trip 10
            pred = bp.predict(0x4000)
            if i > 1000:
                if pred.provider is Provider.LOOP:
                    loop_provided += 1
                if pred.taken != taken:
                    misses += 1
            bp.update(pred, taken)
            iteration = iteration + 1 if taken else 0
        assert misses < 10
        assert loop_provided > 0

    def test_biased_branch_low_miss(self):
        bp = TageScL()
        rng = random.Random(3)
        misses = total = 0
        for i in range(2500):
            taken = rng.random() < 0.03
            pred = bp.predict(0x8000)
            if i > 300:
                total += 1
                misses += pred.taken != taken
            bp.update(pred, taken)
        assert misses / total < 0.08

    def test_cross_branch_correlation(self):
        bp = TageScL()
        rng = random.Random(5)
        history = [False, False]
        misses = total = 0
        for i in range(5000):
            lead = rng.random() < 0.5
            pred_lead = bp.predict(0x2000)
            bp.update(pred_lead, lead)
            history.append(lead)
            follow = history[-1] ^ history[-2]
            pred_follow = bp.predict(0x3000)
            if i > 2500:
                total += 1
                misses += pred_follow.taken != follow
            bp.update(pred_follow, follow)
        assert misses / total < 0.05

    def test_push_unconditional_changes_history(self):
        bp = TageScL()
        before = bp.predict(0x1000)
        for i in range(8):
            bp.push_unconditional(0x5000 + 4 * i)
        after = bp.predict(0x1000)
        assert before.indices != after.indices

    def test_small_config_storage(self):
        small = TageScLConfig.small()
        default = TageScLConfig()
        assert small.storage_kb < default.storage_kb
        # Paper budget: the Alt-BP is an ~8KB-class predictor.
        assert 2 < small.storage_kb < 16
        # Baseline is a 64KB-class predictor.
        assert 24 < default.storage_kb < 128

    def test_make_histories_independent(self):
        bp = TageScL(TageScLConfig.small())
        alt = bp.make_histories()
        for i in range(20):
            bp.push_unconditional(0x100 + 4 * i)
        main_pred = bp.predict(0x7000)
        alt_pred = bp.predict(0x7000, histories=alt)
        assert main_pred.indices != alt_pred.indices
        alt.copy_from(bp.histories)
        resynced = bp.predict(0x7000, histories=alt)
        assert resynced.indices == main_pred.indices


class TestProviderAttribution:
    def test_empty_predictor_is_bimodal(self):
        bp = TageScL()
        pred = bp.predict(0x1000)
        assert pred.provider in (Provider.BIMODAL, Provider.SC)

    def test_providers_diversify_with_training(self):
        bp = TageScL()
        rng = random.Random(1)
        providers = set()
        for i in range(4000):
            pc = 0x1000 + (i % 7) * 4
            taken = rng.random() < (0.1 if pc % 8 else 0.9)
            pred = bp.predict(pc)
            providers.add(pred.provider)
            bp.update(pred, taken)
        assert Provider.HITBANK in providers

    def test_provider_value_matches_component(self):
        bp = TageScL()
        pred = bp.predict(0x1000)
        if pred.provider in (Provider.BIMODAL, Provider.BIMODAL_1IN8):
            assert pred.provider_value == pred.bimodal_ctr


class TestConfidenceClassifiers:
    def _mispredicting_h2p_branch(self):
        """Train a predictor on a coin-flip branch and collect predictions."""
        bp = TageScL()
        rng = random.Random(9)
        records = []
        for i in range(3000):
            taken = rng.random() < 0.5
            pred = bp.predict(0xA000)
            if i > 500:
                records.append((pred, taken))
            bp.update(pred, taken)
        return records

    def test_ucp_flags_random_branch_often(self):
        records = self._mispredicting_h2p_branch()
        flagged = sum(ucp_conf_is_h2p(pred) for pred, _ in records)
        assert flagged / len(records) > 0.5

    def test_ucp_rarely_flags_stable_branch(self):
        bp = TageScL()
        records = []
        for i in range(2000):
            pred = bp.predict(0xB000)
            if i > 500:
                records.append(pred)
            bp.update(pred, True)
        flagged = sum(ucp_conf_is_h2p(pred) for pred in records)
        assert flagged / len(records) < 0.1

    def test_ucp_coverage_geq_tage_on_noise(self):
        # UCP-Conf extends TAGE-Conf (AltBank/SC always flagged), so on a
        # mixed workload its coverage must be at least TAGE-Conf's.
        bp = TageScL()
        rng = random.Random(11)
        tage_stats = ConfidenceStats("tage")
        ucp_stats = ConfidenceStats("ucp")
        for i in range(6000):
            pc = 0x1000 + (i % 13) * 4
            p_taken = [0.02, 0.98, 0.5][pc % 3]
            taken = rng.random() < p_taken
            pred = bp.predict(pc)
            if i > 1000:
                miss = pred.taken != taken
                tage_stats.record(tage_conf_is_h2p(pred), miss)
                ucp_stats.record(ucp_conf_is_h2p(pred), miss)
            bp.update(pred, taken)
        assert ucp_stats.coverage >= tage_stats.coverage

    def test_loop_provider_is_high_confidence_for_ucp(self):
        bp = TageScL()
        iteration = 0
        loop_preds = []
        for i in range(3000):
            taken = iteration < 7
            pred = bp.predict(0xC000)
            if pred.provider is Provider.LOOP:
                loop_preds.append(pred)
            bp.update(pred, taken)
            iteration = iteration + 1 if taken else 0
        assert loop_preds, "loop predictor never provided"
        assert all(not ucp_conf_is_h2p(pred) for pred in loop_preds)

    def test_confidence_stats_math(self):
        stats = ConfidenceStats("x")
        stats.record(flagged_h2p=True, mispredicted=True)
        stats.record(flagged_h2p=True, mispredicted=False)
        stats.record(flagged_h2p=False, mispredicted=True)
        stats.record(flagged_h2p=False, mispredicted=False)
        assert stats.coverage == pytest.approx(50.0)
        assert stats.accuracy == pytest.approx(50.0)

    def test_confidence_stats_empty(self):
        stats = ConfidenceStats("empty")
        assert stats.coverage == 0.0
        assert stats.accuracy == 0.0

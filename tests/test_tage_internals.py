"""Deep tests of TAGE internals: allocation, useful bits, USE_ALT_ON_NA."""

from repro.branch.tage import TAGE, TageConfig


def drive(tage: TAGE, pc: int, outcomes) -> int:
    """Feed outcomes through predict/update; returns misprediction count."""
    misses = 0
    for taken in outcomes:
        pred = tage.predict(pc)
        misses += pred.tage_taken != taken
        tage.update(pred, taken)
        tage.push_history(pc, taken)
    return misses


class TestAllocation:
    def test_mispredictions_allocate_tagged_entries(self):
        tage = TAGE(TageConfig(n_tables=4, max_history=32))
        # Alternating branch: bimodal mispredicts forever, so tagged
        # entries must get allocated.
        drive(tage, 0x1000, [i % 2 == 0 for i in range(200)])
        allocated = sum(
            1 for table in tage._tags for tag in table if tag != -1
        )
        assert allocated > 0

    def test_no_allocation_without_mispredictions(self):
        tage = TAGE(TageConfig(n_tables=4))
        # Always-not-taken: bimodal (init weakly not-taken) never misses.
        drive(tage, 0x2000, [False] * 100)
        allocated = sum(1 for table in tage._tags for tag in table if tag != -1)
        assert allocated == 0

    def test_allocation_counter_triggers_useful_reset(self):
        config = TageConfig(n_tables=4, useful_reset_period=8)
        tage = TAGE(config)
        # Noisy branches force a stream of allocations past the period.
        import random

        rng = random.Random(0)
        for i in range(600):
            pc = 0x3000 + 4 * (i % 17)
            pred = tage.predict(pc)
            tage.update(pred, rng.random() < 0.5)
            tage.push_history(pc, rng.random() < 0.5)
        # After resets, the allocation counter stays below the period.
        assert tage._allocations_since_reset < config.useful_reset_period


class TestUsefulBits:
    def test_useful_incremented_when_provider_beats_alt(self):
        tage = TAGE(TageConfig(n_tables=4, max_history=24))
        # History-dependent branch the tagged tables learn but bimodal
        # cannot: provider will differ from altpred and be correct.
        drive(tage, 0x4000, [i % 2 == 0 for i in range(600)])
        total_useful = sum(sum(table) for table in tage._useful)
        assert total_useful > 0

    def test_useful_bounded(self):
        config = TageConfig(n_tables=4, useful_bits=2)
        tage = TAGE(config)
        drive(tage, 0x5000, [i % 2 == 0 for i in range(800)])
        for table in tage._useful:
            assert all(0 <= value <= 3 for value in table)

    def test_counters_bounded(self):
        config = TageConfig(n_tables=4, counter_bits=3)
        tage = TAGE(config)
        drive(tage, 0x6000, [i % 3 == 0 for i in range(800)])
        for table in tage._ctrs:
            assert all(-4 <= value <= 3 for value in table)


class TestProviderSelection:
    def test_longest_matching_bank_provides(self):
        tage = TAGE(TageConfig(n_tables=4, max_history=24))
        drive(tage, 0x7000, [i % 2 == 0 for i in range(600)])
        pred = tage.predict(0x7000)
        if pred.hit_bank is not None and pred.alt_bank is not None:
            assert pred.hit_bank > pred.alt_bank

    def test_provider_ctr_reflects_provider(self):
        tage = TAGE(TageConfig(n_tables=4))
        pred = tage.predict(0x8000)
        assert pred.tage_provider == "bimodal"
        assert pred.provider_ctr == pred.bimodal_ctr

    def test_use_alt_on_na_in_range(self):
        import random

        tage = TAGE(TageConfig(n_tables=4))
        rng = random.Random(1)
        for i in range(1000):
            pc = 0x9000 + 4 * (i % 11)
            pred = tage.predict(pc)
            tage.update(pred, rng.random() < 0.5)
            tage.push_history(pc, rng.random() < 0.5)
            assert -8 <= tage._use_alt_on_na <= 7

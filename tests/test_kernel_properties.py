"""Hypothesis property suite for batching boundaries on the one path.

The remaining fast-path mechanisms — event-driven idle-skip
(``REPRO_SIM_SKIP``) and interval sampling (``REPRO_SIM_INTERVAL``) —
each promise bit-identical results, and they compose with the BPU's
stream-cursor span jumps and with arming the sanitizer or observer.
These properties drive randomly generated traces (random branch mixes,
loop/H2P fractions, so span and event boundaries land in arbitrary
places) through the matrix and demand identical ``StatBlock`` exports,
interval samples and stall-taxonomy partitions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import SimConfig
from repro.core.pipeline import Simulator, simulate
from repro.workloads import WorkloadConfig, generate_trace


def _random_trace(seed: int, loop_fraction: float, h2p: float, n: int = 1_500):
    config = WorkloadConfig(
        name=f"prop_{seed}",
        seed=seed,
        n_functions=8,
        n_instructions=n,
        loop_fraction=loop_fraction,
        h2p_fraction=h2p,
    )
    trace = generate_trace(config)
    trace.validate()
    return trace


class TestKernelSkipIntervalMatrix:
    @settings(deadline=None, max_examples=6)
    @given(
        seed=st.integers(0, 10_000),
        loop_fraction=st.floats(0.0, 0.5),
        h2p=st.floats(0.0, 0.3),
        interval=st.sampled_from([0, 200, 997]),
    )
    def test_full_matrix_bit_identical(self, seed, loop_fraction, h2p, interval):
        trace = _random_trace(seed, loop_fraction, h2p)
        config = SimConfig()
        reference = simulate(
            trace, config, idle_skip=False, interval=interval
        ).to_dict()
        for armed in (False, True):
            for idle_skip in (False, True):
                result = simulate(
                    trace,
                    config,
                    check=armed,
                    observe=armed,
                    idle_skip=idle_skip,
                    interval=interval,
                ).to_dict()
                assert result == reference, (
                    f"divergence at armed={armed} skip={idle_skip} "
                    f"interval={interval}"
                )

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(0, 10_000))
    def test_skip_telemetry_identical_under_kernel(self, seed):
        """Idle-skip must jump the *same* cycles whether or not the
        sanitizer and observer are armed: the wake analysis reads
        component state neither may perturb."""
        trace = _random_trace(seed, 0.3, 0.1)
        config = SimConfig()
        plain = Simulator(trace, config, check=False, observe=False, idle_skip=True)
        plain.run()
        armed = Simulator(trace, config, check=True, observe=True, idle_skip=True)
        armed.run()
        assert (plain.skipped_cycles, plain.skip_events) == (
            armed.skipped_cycles,
            armed.skip_events,
        )

    @settings(deadline=None, max_examples=4)
    @given(seed=st.integers(0, 10_000), h2p=st.floats(0.0, 0.3))
    def test_taxonomy_partition_identical(self, seed, h2p):
        """The stall-taxonomy partition must cover every cycle and be the
        same whether idle cycles are skipped or stepped."""
        trace = _random_trace(seed, 0.2, h2p)
        config = SimConfig()
        taxonomies = []
        for idle_skip in (False, True):
            sim = Simulator(trace, config, observe=True, idle_skip=idle_skip)
            result = sim.run()
            taxonomy = sim.observer.taxonomy
            taxonomy.check_partition(result.cycles, name=f"skip={idle_skip}")
            taxonomies.append(taxonomy.as_dict())
        assert taxonomies[0] == taxonomies[1]

    @settings(deadline=None, max_examples=4)
    @given(
        seed=st.integers(0, 10_000),
        interval=st.sampled_from([150, 512]),
    )
    def test_interval_series_identical(self, seed, interval):
        trace = _random_trace(seed, 0.25, 0.15)
        config = SimConfig()
        stepped = simulate(trace, config, idle_skip=False, interval=interval)
        skipped = simulate(trace, config, idle_skip=True, interval=interval)
        assert stepped.intervals == skipped.intervals
        assert len(skipped.intervals) > 0

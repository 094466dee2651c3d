"""The recorded branch stream and backend columns, and the one simulator path.

Unit tests for the precomputed backend columns and the recorded
prediction stream, the ordering argument that makes the stream the BPU's
only predictor input, and the differential cases as lookups against the
pinned digests in ``tests/golden/sim_digests.json``.
"""

from bisect import bisect_left
from dataclasses import replace

import pytest

from repro.branch.confidence import tage_conf_is_h2p, ucp_conf_is_h2p
from repro.branch.ittage import ITTAGE
from repro.branch.tage_sc_l import TageScL
from repro.core.backend import Backend
from repro.core.configs import SimConfig
from repro.core.kernel import build_columns, get_columns, get_stream, record_stream
from repro.core.kernel.stream import INDIRECT_MISPREDICTED
from repro.core.pipeline import Simulator, simulate
from repro.frontend.bpu import BPU
from repro.isa import BranchClass
from repro.workloads import SUITE, load_workload
from tests import digests

from .conftest import build_branchy_trace

FIXTURE = digests.load_fixture()

COND = int(BranchClass.COND_DIRECT)
INDIRECTS = (int(BranchClass.INDIRECT), int(BranchClass.CALL_INDIRECT))


def _next_branch(stream, i):
    """The BPU's span jump target: first recorded branch at or after ``i``."""
    return stream.indices[bisect_left(stream.indices, i)]


# ----------------------------------------------------------------------
# Columns and spans
# ----------------------------------------------------------------------


class TestColumns:
    def test_next_branch_matches_naive_scan(self):
        trace = load_workload("int_02", 1_500).trace
        stream = record_stream(trace, SimConfig())
        classes = list(trace.branch_classes)
        n = len(trace)
        for i in range(n):
            expected = next((j for j in range(i, n) if classes[j]), n)
            assert _next_branch(stream, i) == expected

    def test_next_branch_on_branchy_trace(self):
        trace = build_branchy_trace()
        stream = record_stream(trace, SimConfig())
        # Index 0 is a plain instruction, 1 is the first branch; the two
        # trailing plain instructions point at the sentinel.
        assert _next_branch(stream, 0) == 1
        assert _next_branch(stream, 1) == 1
        assert _next_branch(stream, 10) == len(trace)
        assert _next_branch(stream, 11) == len(trace)

    def test_latency_and_distance_match_backend_hash(self):
        trace = load_workload("fp_01", 1_000).trace
        backend = SimConfig().backend
        columns = build_columns(trace, backend)
        for i in range(len(trace)):
            value = int(trace.pcs[i]) >> 2
            value ^= value >> 7
            value ^= value >> 13
            h = value & 0xFFFF
            if h % backend.load_hash_mod == 0:
                if (h >> 8) % backend.long_load_every == 0:
                    latency = backend.long_load_latency
                else:
                    latency = backend.load_latency
            else:
                latency = backend.simple_latency
            assert columns.latency[i] == latency
            assert columns.distance[i] == 1 + (h >> 4) % backend.dep_window

    def test_cache_reuses_per_trace_and_config(self):
        trace = load_workload("int_02", 1_000).trace
        config = SimConfig()
        assert get_columns(trace, config) is get_columns(trace, config)
        # A config differing only in non-column scalars shares the entry.
        same_key = replace(config, warmup_fraction=0.5)
        assert get_columns(trace, same_key) is get_columns(trace, config)
        # The backend reads the same cached columns.
        backend = Backend(config.backend, trace, None)
        assert backend._latency is get_columns(trace, config).latency


# ----------------------------------------------------------------------
# Prediction stream
# ----------------------------------------------------------------------


class TestStream:
    def test_stream_lengths_match_branch_mix(self):
        trace = load_workload("int_02", 2_000).trace
        stream = record_stream(trace, SimConfig())
        classes = list(trace.branch_classes)
        branches = [i for i, c in enumerate(classes) if c]
        assert stream.indices == branches + [len(trace)]
        assert len(stream.flags) == len(branches)
        for i, flags in zip(branches, stream.flags):
            if classes[i] == COND:
                assert not flags & INDIRECT_MISPREDICTED
            elif classes[i] in INDIRECTS:
                assert flags in (0, INDIRECT_MISPREDICTED)
            else:
                assert flags == 0

    def test_stream_cached_per_trace(self):
        trace = load_workload("fp_01", 1_000).trace
        config = SimConfig()
        assert get_stream(trace, config) is get_stream(trace, config)


class TestOrderingArgument:
    """The frontend stalls at every mispredict and fetches no wrong path,
    so the BPU processes every branch once, in trace order: a fresh
    inline TAGE-SC-L/ITTAGE fed the order a timed run actually processed
    branches in reproduces every recorded bit."""

    @staticmethod
    def _processed(sim):
        """Run ``sim``, logging (index, kind, payload) per processed branch."""
        bpu = sim.bpu
        log = []
        branch_hook, uncond_hook, indirect_hook = (
            bpu.branch_hook,
            bpu.uncond_hook,
            bpu.indirect_hook,
        )

        def on_branch(event, cycle):
            log.append((event.index, "cond", event))
            branch_hook(event, cycle)

        def on_uncond(pc):
            log.append((bpu.index - 1, "uncond", pc))
            if uncond_hook is not None:
                uncond_hook(pc)

        def on_indirect(pc, target):
            index = bpu.index - 1
            log.append((index, "indirect", (pc, target, bpu.stalled_on == index)))
            if indirect_hook is not None:
                indirect_hook(pc, target)

        bpu.branch_hook, bpu.uncond_hook, bpu.indirect_hook = (
            on_branch,
            on_uncond,
            on_indirect,
        )
        sim.run()
        return log

    @pytest.mark.parametrize("label", ["base", "ucp"])
    def test_stream_equals_inline_predictors_in_processing_order(self, label):
        config = digests.configs()[label]
        for name in SUITE:
            trace = load_workload(name, 2_000).trace
            sim = Simulator(trace, config, name=name)
            log = self._processed(sim)
            stream = get_stream(trace, config)
            order = [index for index, kind, _ in log if kind != "indirect"]
            assert order == stream.indices[:-1], f"{name}: not trace order"

            cond = TageScL(config.branch_predictor)
            indirect = ITTAGE(config.indirect_predictor)
            for index, kind, payload in log:
                if kind == "cond":
                    prediction = cond.predict(payload.pc)
                    assert payload.predicted_taken == prediction.taken, (name, index)
                    assert payload.tage_h2p == tage_conf_is_h2p(prediction), (name, index)
                    assert payload.ucp_h2p == ucp_conf_is_h2p(prediction), (name, index)
                    cond.update(prediction, payload.actual_taken)
                    indirect.push_history(payload.pc, payload.actual_taken)
                elif kind == "uncond":
                    cond.push_unconditional(payload)
                    indirect.push_history(payload, True)
                else:
                    pc, target, mispredicted = payload
                    prediction = indirect.predict(pc)
                    assert mispredicted == (prediction.target != target), (name, index)
                    indirect.update(prediction, target)

    def test_served_job_simulates_through_the_stream(self, cache_dir, monkeypatch):
        from repro.analysis import runner
        from repro.frontend import bpu as bpu_module

        streams = []
        real_get_stream = bpu_module.get_stream

        def recording_get_stream(trace, config):
            stream = real_get_stream(trace, config)
            streams.append((trace.name, stream))
            return stream

        monkeypatch.setattr(bpu_module, "get_stream", recording_get_stream)
        config = SimConfig()
        result, _seconds, taxonomy, _spans = runner.job_entry(
            "fp_01", config, 1_500, observe=True
        )
        assert taxonomy is not None  # the observer was armed
        assert [name for name, _ in streams] == [result.name]
        trace = load_workload("fp_01", 1_500).trace
        assert streams[0][1] is get_stream(trace, config)
        assert result.to_dict() == simulate(trace, config, name="fp_01").to_dict()


# ----------------------------------------------------------------------
# Differential cases: lookups against the pinned digests
# ----------------------------------------------------------------------


def _matches_fixture(case):
    make_trace, config = digests.result_cases()[case]
    record = digests.result_record(make_trace(), config, case.split("@")[0])
    assert record == FIXTURE["results"][case], case


class TestDifferential:
    @pytest.mark.parametrize("workload", digests.PINNED)
    @pytest.mark.parametrize("label", ["base", "ucp"])
    def test_pinned_suite_bit_identical(self, workload, label):
        _matches_fixture(f"{workload}/{label}@2500")

    @pytest.mark.parametrize("workload", digests.DC_SLICE)
    def test_dc_slice_bit_identical(self, workload):
        for label in ("base", "ucp"):
            _matches_fixture(f"{workload}/{label}@2000")

    @pytest.mark.parametrize("label,config_fn", list(digests.VARIANTS.items()))
    def test_config_variants_bit_identical(self, label, config_fn):
        _matches_fixture(f"int_02/{label}@2000")

    def test_tiny_hand_trace_bit_identical(self):
        _matches_fixture("branchy/default")


# ----------------------------------------------------------------------
# One path
# ----------------------------------------------------------------------


class TestGating:
    """Nothing gates the components any more: the checker and the
    observer attach to the same BPU and backend every run builds."""

    def test_checker_keeps_the_stream_components(self):
        trace = load_workload("int_02", 1_000).trace
        sim = Simulator(trace, SimConfig(), check=True)
        assert sim.checker is not None
        assert type(sim.bpu) is BPU and type(sim.backend) is Backend
        assert sim.bpu._branch_at is get_stream(trace, SimConfig()).indices
        sim.run()  # invariants armed on the published path, must stay green

    def test_observer_armed_run_is_bit_identical(self):
        trace = load_workload("int_02", 1_500).trace
        plain = simulate(trace, SimConfig(), observe=False)
        observed = simulate(trace, SimConfig(), observe=True)
        assert plain.to_dict() == observed.to_dict()

    def test_plain_simulator_untouched(self):
        trace = load_workload("fp_01", 1_000).trace
        sim = Simulator(trace, SimConfig())
        assert type(sim.bpu).__name__ == "BPU"
        assert type(sim.backend).__name__ == "Backend"

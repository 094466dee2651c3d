"""The runtime invariant checker (sim sanitizer) on the clean model.

Covers the three guarantees the tentpole promises: the clean model never
fires an invariant, enabling checks never changes simulation results, and
the whole layer costs one pointer test per cycle when off.
"""

import pytest

from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import Simulator, simulate
from repro.verify import check_level, checks_enabled, make_checker
from repro.verify.invariants import INVARIANTS, SimCheckError
from repro.workloads import load_workload


def _sim(workload="int_02", n=2_000, config=None, check=None):
    trace = load_workload(workload, n).trace
    return Simulator(trace, config or SimConfig(), name=workload, check=check)


class TestEnvGating:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CHECK", raising=False)
        assert check_level() == 0
        assert not checks_enabled()
        assert _sim(n=50).checker is None

    @pytest.mark.parametrize("raw", ["", "0"])
    def test_explicit_off(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SIM_CHECK", raw)
        assert check_level() == 0

    def test_on_every_cycle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CHECK", "1")
        assert check_level() == 1
        assert _sim(n=50).checker is not None

    def test_stride(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CHECK", "8")
        assert check_level() == 8
        assert _sim(n=50).checker.stride == 8

    def test_garbage_means_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CHECK", "yes please")
        assert check_level() == 1

    def test_check_flag_overrides_env_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CHECK", raising=False)
        assert _sim(n=50, check=True).checker is not None

    def test_check_false_overrides_env_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CHECK", "1")
        assert _sim(n=50, check=False).checker is None
        assert make_checker(_sim(n=50, check=False), enabled=False) is None


CONFIGS = {
    "base": SimConfig(),
    "ucp": SimConfig(ucp=UCPConfig(enabled=True)),
    "no-uop": SimConfig().without_uop_cache(),
    "mrc": SimConfig(mrc_entries=64),
}


class TestCleanModel:
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_no_invariant_fires(self, label):
        sim = _sim(config=CONFIGS[label], check=True)
        sim.run()  # SimCheckError would propagate
        assert sim.checker.cycles_checked > 0

    def test_h2p_heavy_workload_clean(self):
        _sim("srv_04", config=CONFIGS["ucp"], check=True).run()

    def test_checking_never_changes_results(self):
        trace = load_workload("int_02", 2_000).trace
        checked = simulate(trace, SimConfig(), check=True)
        clean = simulate(trace, SimConfig(), check=False)
        assert checked.cycles == clean.cycles
        assert checked.ipc == clean.ipc
        assert checked.window == clean.window

    def test_stride_checks_fewer_cycles(self):
        trace = load_workload("int_02", 1_000).trace
        every = Simulator(trace, SimConfig(), check=True)
        every.run()
        import os

        os.environ["REPRO_SIM_CHECK"] = "16"
        try:
            strided = Simulator(trace, SimConfig(), check=True)
        finally:
            del os.environ["REPRO_SIM_CHECK"]
        strided.run()
        assert strided.checker.stride == 16
        assert 0 < strided.checker.cycles_checked < every.checker.cycles_checked


class TestCheckerMechanics:
    def test_registry_is_populated(self):
        expected = {
            "ftq-order",
            "fetch-queue",
            "uop-cache-bounds",
            "uop-cache-entries",
            "l1i-shadow",
            "bpu-ras",
            "bpu-stream",
            "commit-conservation",
            "commit-monotonic",
            "queue-dispatch-seam",
            "source-exclusive",
            "ucp-queues",
            "final-conservation",
        }
        assert expected <= set(INVARIANTS)

    def test_violation_wraps_into_simcheckerror(self):
        sim = _sim(n=200, check=True)
        sim.backend.committed += 3  # corrupt the commit counter
        with pytest.raises(SimCheckError) as caught:
            sim.checker.on_cycle(0)
        assert caught.value.invariant in ("commit-conservation", "commit-monotonic")
        assert caught.value.cycle == 0
        assert "int_02" in str(caught.value)

    def test_simcheckerror_is_assertionerror(self):
        # pytest and plain `assert`-style harnesses treat it natively.
        assert issubclass(SimCheckError, AssertionError)

    def test_shadow_structures_attached_only_when_checking(self):
        checked = _sim(n=50, check=True)
        assert checked.hierarchy.l1i.shadow is not None
        assert checked.bpu.ras.shadow is not None
        unchecked = _sim(n=50, check=False)
        assert unchecked.hierarchy.l1i.shadow is None
        assert unchecked.bpu.ras.shadow is None

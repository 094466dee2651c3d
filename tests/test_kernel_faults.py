"""Mutation-catch tests for the BPU's stream replay and UCP's row cursor.

The three faults that once targeted the replay kernel now patch the one
BPU (``repro.verify.faults``): the span off-by-one must trip the
``bpu-stream`` invariant, and the two timing-only faults — a stale
branch class and a skipped redirect bubble — must move the pinned result
digests.  A UCP row cursor one ahead of the live Alt-BP register must
trip ``ucp-alt-history``, which runs at every walk start.  A commit
counter that runs one ahead in a cycle retiring fewer than
``commit_width`` µ-ops must trip ``commit-conservation``'s ROB-window
check, since ``commit-monotonic``'s width bound cannot see it.
"""

from dataclasses import replace

import pytest

from repro.core.backend import Backend
from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import Simulator
from repro.frontend.bpu import BPU
from repro.verify.faults import FAULTS, RESULT_DIGEST, run_fault
from repro.verify.invariants import INVARIANTS, SimCheckError
from repro.workloads import load_workload
from tests import digests

BPU_FAULTS = {
    "kernel-span-off-by-one": "bpu-stream",
    "kernel-stale-branch-class": RESULT_DIGEST,
    "kernel-skipped-event-boundary": RESULT_DIGEST,
}

#: A pinned case each timing-only fault must move.
PINNED_CASE = {
    "kernel-stale-branch-class": "dc_call_01/base@2000",
    "kernel-skipped-event-boundary": "int_02/base@2500",
}


def test_registry_has_the_three_kernel_faults():
    assert set(BPU_FAULTS) <= set(FAULTS)


def test_every_kernel_fault_expects_the_differential():
    """Each re-homed fault names the one check that sees it."""
    for name, invariant in BPU_FAULTS.items():
        assert FAULTS[name].expected_invariants == (invariant,)


@pytest.mark.parametrize("name", sorted(BPU_FAULTS))
def test_kernel_fault_is_caught(name):
    outcome = run_fault(name)
    assert outcome.caught, outcome.render()
    assert outcome.invariant == BPU_FAULTS[name]


@pytest.mark.parametrize("name", sorted(PINNED_CASE))
def test_timing_only_fault_moves_the_pinned_digest(name):
    case = PINNED_CASE[name]
    make_trace, config = digests.result_cases()[case]
    pinned = digests.load_fixture()["results"][case]
    with FAULTS[name].inject():
        faulted = digests.result_record(make_trace(), config, case.split("@")[0])
    assert faulted["sha256"] != pinned["sha256"]
    assert digests.result_record(make_trace(), config, case.split("@")[0]) == pinned


def test_patches_are_restored_after_runs():
    originals = {
        name: BPU.__dict__[name]
        for name in ("_build_block", "_handle_unconditional", "redirect")
    }
    for name in BPU_FAULTS:
        run_fault(name)
    for name, original in originals.items():
        assert BPU.__dict__[name] is original


def test_faults_only_patch_the_replay_class():
    """Each fault patches the BPU — the class that replays the stream —
    and leaves every other class's attributes alone."""
    for name in BPU_FAULTS:
        before = dict(BPU.__dict__)
        with FAULTS[name].inject():
            changed = {key for key, value in BPU.__dict__.items() if before.get(key) is not value}
        assert len(changed) == 1, (name, changed)
        assert dict(BPU.__dict__) == before


def test_ucp_row_cursor_fault_trips_alt_history():
    outcome = run_fault("ucp-row-cursor-off-by-one")
    assert outcome.caught, outcome.render()
    assert outcome.invariant == "ucp-alt-history"


@pytest.mark.parametrize("use_indirect", [True, False])
def test_alt_history_checked_at_every_walk_start(monkeypatch, use_indirect):
    invariant = INVARIANTS["ucp-alt-history"]
    calls = []

    def counted(checker, cycle):
        calls.append(cycle)
        invariant.check(checker, cycle)

    monkeypatch.setitem(INVARIANTS, invariant.name, replace(invariant, check=counted))
    config = replace(SimConfig(), ucp=UCPConfig(enabled=True, use_indirect=use_indirect))
    result = Simulator(load_workload("int_02", 3_000).trace, config, check=True).run()
    walks = result.to_dict()["totals"]["counters"]["ucp_walks_started"]
    assert walks > 0
    assert len(calls) == walks


def test_partial_cycle_overcount_trips_commit_conservation(monkeypatch):
    """One extra µ-op counted in a cycle that retired fewer than
    ``commit_width``: the cycle's count stays within the width bound of
    ``commit-monotonic``, and the ROB window sees, in that same cycle, a
    µ-op retired before it completed."""
    real_commit = Backend.commit
    counted = []

    def commit(self, cycle):
        retired = real_commit(self, cycle)
        if 0 < retired < self.config.commit_width:
            self.committed += 1
            counted.append((cycle, retired + 1))
        return retired

    monkeypatch.setattr(Backend, "commit", commit)
    sim = Simulator(load_workload("int_02", 2_000).trace, SimConfig(), check=True)
    with pytest.raises(SimCheckError) as caught:
        sim.run()
    assert caught.value.invariant == "commit-conservation"
    assert "but completes at" in str(caught.value)
    assert [cycle for cycle, _ in counted] == [caught.value.cycle]
    assert counted[0][1] <= sim.config.backend.commit_width

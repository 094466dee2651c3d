"""Mutation-catch tests for the BPU's stream replay.

The three faults that once targeted the replay kernel now patch the one
BPU (``repro.verify.faults``): the span off-by-one must trip the
``bpu-stream`` invariant, and the two timing-only faults — a stale
branch class and a skipped redirect bubble — must move the pinned result
digests.
"""

import pytest

from repro.frontend.bpu import BPU
from repro.verify.faults import FAULTS, RESULT_DIGEST, run_fault
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

"""Mutation-catch tests: every injected fault must be detected.

This is the sanitizer's own regression suite — if an invariant or oracle
is weakened to the point that one of these deliberate bugs slips through,
the corresponding test fails.
"""

import pytest

from repro.branch.ras import ReturnAddressStack
from repro.caches.cache import SetAssocCache
from repro.caches.uopcache import UopCache
from repro.core.backend import Backend
from repro.frontend.fetch import FetchEngine
from repro.frontend.ftq import FTQ
from repro.verify.faults import FAULTS, run_fault
from repro.verify.invariants import SimCheckError


def test_registry_has_at_least_five_faults():
    assert len(FAULTS) >= 5


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_is_caught(name):
    outcome = run_fault(name)
    assert outcome.caught, outcome.render()
    assert outcome.invariant in FAULTS[name].expected_invariants


def test_patches_are_restored_after_runs():
    originals = {
        UopCache: UopCache.insert,
        FTQ: FTQ.pop,
        ReturnAddressStack: ReturnAddressStack.push,
        Backend: Backend.commit,
        FetchEngine: FetchEngine._deliver,
        SetAssocCache: SetAssocCache.access,
    }
    for name in FAULTS:
        run_fault(name)
    assert UopCache.insert is originals[UopCache]
    assert FTQ.pop is originals[FTQ]
    assert ReturnAddressStack.push is originals[ReturnAddressStack]
    assert Backend.commit is originals[Backend]
    assert FetchEngine._deliver is originals[FetchEngine]
    assert SetAssocCache.access is originals[SetAssocCache]


def test_patch_restored_even_when_run_raises():
    fault = FAULTS["ftq-leak"]
    original = FTQ.pop
    with pytest.raises(ZeroDivisionError):
        with fault.inject():
            assert FTQ.pop is not original
            raise ZeroDivisionError
    assert FTQ.pop is original


class TestFaultListingCompleteness:
    """`repro verify --list-faults` must cover every registry, and every
    registered fault must have a committed proof that it is caught.

    A fault added to any registry but missing from the listing (or from a
    mutation-catch suite) would ship silently — exactly the drift this
    test pins down.
    """

    def _all_registries(self):
        from repro.verify.service_faults import SERVICE_FAULTS

        return {**FAULTS, **SERVICE_FAULTS}

    def test_registries_do_not_collide(self):
        from repro.verify.service_faults import SERVICE_FAULTS

        registries = [set(FAULTS), set(SERVICE_FAULTS)]
        combined = set().union(*registries)
        assert len(combined) == sum(len(r) for r in registries)

    def test_every_registered_fault_is_listed(self, capsys):
        from repro.cli import main

        assert main(["verify", "--list-faults"]) == 0
        listing = capsys.readouterr().out
        for name in self._all_registries():
            assert name in listing, f"{name} missing from --list-faults"

    def test_every_registered_fault_dispatches_via_inject(self):
        """--inject must recognise every registered name (dispatch drift:
        listed but not injectable)."""
        import repro.cli as cli

        source = open(cli.__file__, encoding="utf-8").read()
        for registry in ("FAULTS", "SERVICE_FAULTS"):
            assert f"args.inject in {registry}" in source, (
                f"--inject does not dispatch on {registry}"
            )

    def test_every_fault_is_provably_caught(self):
        """Each registry's sensitivity proof: run one representative from
        the harness entry points that CI exercises exhaustively in the
        parametrized suites (test_verify_faults / test_serve_faults)."""
        from repro.verify.service_faults import SERVICE_FAULTS, run_service_fault

        assert run_fault(next(iter(FAULTS))).caught
        assert run_service_fault(next(iter(SERVICE_FAULTS))).caught


def test_differential_oracle_catches_dup_without_cycle_checks():
    """The commit-stream oracle alone (no per-cycle invariants) sees the
    duplicated µ-op: the retired sequence stops matching trace order."""
    from repro.core.configs import SimConfig
    from repro.verify.differential import check_commit_stream

    fault = FAULTS["fetch-dup"]
    with fault.inject():
        with pytest.raises(SimCheckError) as caught:
            check_commit_stream("int_02", SimConfig(), 2_000, check=False)
    assert caught.value.invariant == "commit-stream-oracle"

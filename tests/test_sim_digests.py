"""Checked + observed runs against the pinned digests.

Each case runs with the sanitizer and the event bus armed and must
reproduce the pinned result digest, stall taxonomy and event list from
``tests/golden/sim_digests.json`` (see :mod:`tests.digests`).
"""

import pytest

from tests import digests

FIXTURE = digests.load_fixture()
OBSERVED = digests.observed_cases()


def test_fixture_covers_every_case():
    assert set(FIXTURE["results"]) == set(digests.result_cases())
    assert set(FIXTURE["observed"]) == set(OBSERVED)


@pytest.mark.parametrize("case", sorted(OBSERVED))
def test_observed_case_matches_fixture(case):
    workload, config = OBSERVED[case]
    assert digests.observed_record(workload, config) == FIXTURE["observed"][case]

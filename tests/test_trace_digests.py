"""Pinned trace columns of every generated workload.

``tests/golden/trace_digests.json`` holds the sha256 of each column
(``pcs``, ``branch_classes``, ``takens``, ``targets``) of every
:data:`~repro.workloads.SUITE` workload at 6,000 instructions, plus the
four perf-loop traces at 40,000.  Any change to the program generator or
the walker that moves a single byte of a trace fails here, before the
simulator digests downstream of it.  Regenerate after an intentional
generator change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_trace_digests.py

(generation is seeded, so regeneration is reproducible on any machine).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.isa.trace import Trace
from repro.workloads import SUITE, generate_trace

FIXTURE = Path(__file__).parent / "golden" / "trace_digests.json"

COLUMNS = ("pcs", "branch_classes", "takens", "targets")
SUITE_INSTRUCTIONS = 6_000
LOOP_TRACES = ("fp_01", "int_02", "srv_05", "dc_interp_01")
LOOP_INSTRUCTIONS = 40_000

CASES = [(name, SUITE_INSTRUCTIONS) for name in SUITE] + [
    (name, LOOP_INSTRUCTIONS) for name in LOOP_TRACES
]


def case_key(name: str, n_instructions: int) -> str:
    return f"{name}@{n_instructions}"


def column_digests(trace: Trace) -> dict[str, str]:
    return {
        column: hashlib.sha256(getattr(trace, column).tobytes()).hexdigest()
        for column in COLUMNS
    }


def build(name: str, n_instructions: int) -> Trace:
    return generate_trace(replace(SUITE[name], n_instructions=n_instructions))


def regenerate() -> None:
    fixture = {
        case_key(name, n): column_digests(build(name, n)) for name, n in CASES
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict[str, str]]:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        regenerate()
    assert FIXTURE.exists(), "missing trace digests — regenerate with REPRO_REGEN_GOLDEN=1"
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned) == {case_key(name, n) for name, n in CASES}


@pytest.mark.parametrize("name,n_instructions", CASES, ids=[case_key(*c) for c in CASES])
def test_trace_columns_pinned(pinned, name, n_instructions):
    trace = build(name, n_instructions)
    assert len(trace) == n_instructions
    assert column_digests(trace) == pinned[case_key(name, n_instructions)]

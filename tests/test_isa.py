"""Tests for the instruction model and trace container."""

import random

import numpy as np
import pytest

from repro.isa import INSTRUCTION_SIZE, BranchClass, Trace, TraceEntry
from repro.workloads import load_workload


class TestBranchClass:
    def test_flags(self):
        assert not BranchClass.NOT_BRANCH.is_branch
        assert BranchClass.COND_DIRECT.is_conditional
        assert BranchClass.CALL_DIRECT.is_call
        assert BranchClass.CALL_INDIRECT.is_call
        assert BranchClass.RETURN.is_return
        assert BranchClass.INDIRECT.is_indirect
        assert BranchClass.CALL_INDIRECT.is_indirect
        assert not BranchClass.COND_DIRECT.is_indirect

    def test_unconditional(self):
        assert BranchClass.UNCOND_DIRECT.is_unconditional
        assert BranchClass.RETURN.is_unconditional
        assert not BranchClass.COND_DIRECT.is_unconditional
        assert not BranchClass.NOT_BRANCH.is_unconditional

    def test_needs_btb(self):
        assert BranchClass.COND_DIRECT.needs_btb
        assert BranchClass.UNCOND_DIRECT.needs_btb
        assert BranchClass.CALL_DIRECT.needs_btb
        assert not BranchClass.RETURN.needs_btb
        assert not BranchClass.INDIRECT.needs_btb


class TestTraceEntry:
    def test_next_pc_fallthrough(self):
        entry = TraceEntry(pc=0x1000)
        assert entry.next_pc == 0x1004
        assert entry.fallthrough == 0x1004

    def test_next_pc_taken(self):
        entry = TraceEntry(0x1000, BranchClass.COND_DIRECT, True, 0x2000)
        assert entry.next_pc == 0x2000

    def test_not_taken_conditional_falls_through(self):
        entry = TraceEntry(0x1000, BranchClass.COND_DIRECT, False, 0)
        assert entry.next_pc == 0x1004

    def test_misaligned_pc_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(pc=0x1001)

    def test_not_taken_unconditional_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(0x1000, BranchClass.UNCOND_DIRECT, False, 0x2000)

    def test_taken_non_branch_rejected(self):
        with pytest.raises(ValueError):
            TraceEntry(0x1000, BranchClass.NOT_BRANCH, True, 0x2000)


def _simple_entries():
    return [
        TraceEntry(0x1000),
        TraceEntry(0x1004, BranchClass.COND_DIRECT, True, 0x2000),
        TraceEntry(0x2000),
        TraceEntry(0x2004, BranchClass.UNCOND_DIRECT, True, 0x1000),
        TraceEntry(0x1000),
        TraceEntry(0x1004, BranchClass.COND_DIRECT, False, 0x2000),
        TraceEntry(0x1008),
    ]


class TestTrace:
    def test_roundtrip_entries(self):
        trace = Trace.from_entries("t", _simple_entries())
        assert len(trace) == 7
        assert trace[1].taken is True
        assert trace[1].branch_class is BranchClass.COND_DIRECT
        assert trace[5].taken is False
        assert list(trace)[0].pc == 0x1000

    def test_next_pcs(self):
        trace = Trace.from_entries("t", _simple_entries())
        assert trace.next_pcs[0] == 0x1004
        assert trace.next_pcs[1] == 0x2000
        assert trace.next_pcs[5] == 0x1008

    def test_validate_consistent(self):
        trace = Trace.from_entries("t", _simple_entries())
        trace.validate()  # should not raise

    def test_validate_broken_flow(self):
        entries = [_e for _e in _simple_entries()]
        entries[2] = TraceEntry(0x3000)  # wrong: branch targeted 0x2000
        trace = Trace.from_entries("t", entries)
        with pytest.raises(ValueError, match="broken at index 1"):
            trace.validate()

    def test_validate_not_taken_unconditional(self):
        trace = Trace.from_entries("t", _simple_entries())
        # Corrupt the columnar storage directly (bypasses TraceEntry checks).
        trace.takens[3] = False
        with pytest.raises(ValueError, match="not-taken unconditional"):
            trace.validate()

    def test_stats(self):
        trace = Trace.from_entries("t", _simple_entries())
        stats = trace.stats()
        assert stats.instructions == 7
        assert stats.static_instructions == 5  # 0x1000/4/8, 0x2000/4
        assert stats.conditional_branches == 2
        assert stats.taken_conditionals == 1
        assert stats.branches == 3
        assert stats.conditional_taken_rate == 0.5
        assert stats.static_code_bytes == 5 * INSTRUCTION_SIZE

    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace.from_entries("roundtrip", _simple_entries())
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "roundtrip"
        assert len(loaded) == len(trace)
        assert np.array_equal(loaded.pcs, trace.pcs)
        assert np.array_equal(loaded.takens, trace.takens)
        assert np.array_equal(loaded.next_pcs, trace.next_pcs)

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                "bad",
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.uint8),
                np.zeros(3, dtype=bool),
                np.zeros(3, dtype=np.int64),
            )

    def test_empty_trace(self):
        trace = Trace.from_entries("empty", [])
        assert len(trace) == 0
        trace.validate()


#: The per-record rules ``Trace.validate`` enforces on raw columns:
#: ``problem -> (rows a fault can hit, column planted, bad value)``.
_PLANTED_FAULTS = {
    "misaligned PC": (lambda classes: classes >= 0, "pcs", lambda pc: pc + 2),
    "taken non-branch": (
        lambda classes: classes == BranchClass.NOT_BRANCH, "takens", lambda _: True
    ),
    "not-taken unconditional": (
        lambda classes: (classes != BranchClass.NOT_BRANCH)
        & (classes != BranchClass.COND_DIRECT),
        "takens",
        lambda _: False,
    ),
}


class TestValidateRejectsPlantedRows:
    """Generated traces skip ``TraceEntry``'s checks, so ``validate`` must
    catch each bad row in the raw columns, wherever it sits."""

    @pytest.fixture(scope="class")
    def columns(self):
        trace = load_workload("int_02", 3_000).trace
        trace.validate()
        return {
            name: getattr(trace, name)
            for name in ("pcs", "branch_classes", "takens", "targets")
        }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("problem", sorted(_PLANTED_FAULTS))
    def test_planted_row_rejected(self, columns, problem, seed):
        eligible, name, bad = _PLANTED_FAULTS[problem]
        planted = {column: values.copy() for column, values in columns.items()}
        row = int(random.Random(seed).choice(np.flatnonzero(eligible(planted["branch_classes"]))))
        planted[name][row] = bad(planted[name][row])
        trace = Trace("planted", *planted.values())
        with pytest.raises(ValueError, match=f"{problem}.* at index {row} "):
            trace.validate()

"""Memory budgets for the per-trace columns and the per-run state.

Sizes are counted with :mod:`tracemalloc`, which sees every Python and
numpy allocation of this process, so the counts do not depend on the
allocator or on what else the machine runs.
"""

from __future__ import annotations

import operator
import tracemalloc
from dataclasses import replace

import pytest

from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import Simulator
from repro.isa import BranchClass, Trace, TraceEntry
from repro.workloads import load_workload

N_INSTRUCTIONS = 40_000
#: The suite trace with the most distinct PCs (about 8K) at 40K
#: instructions: the worst case for the shared PC ints.
WIDE_TRACE = "srv_05"
#: Bytes per instruction of all five list columns together: one pointer
#: per column per instruction (40 B) plus the distinct PC ints.
COLUMN_BYTES_PER_INSTRUCTION = 60


def _fresh_copy(trace: Trace) -> Trace:
    """The same columns in a new Trace, whose list columns are not built."""
    return Trace(trace.name, trace.pcs, trace.branch_classes, trace.takens, trace.targets)


def _traced_bytes(build):
    """``(result, bytes still allocated)`` of calling ``build``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_trace() -> Trace:
    return load_workload(WIDE_TRACE, N_INSTRUCTIONS).trace


class TestListColumns:
    def test_bytes_per_instruction(self, wide_trace):
        trace = _fresh_copy(wide_trace)
        _columns, allocated = _traced_bytes(trace.list_columns)
        per_instruction = allocated / len(trace)
        assert per_instruction <= COLUMN_BYTES_PER_INSTRUCTION, (
            f"list columns take {per_instruction:.1f} B per instruction"
        )

    def test_values_match_the_arrays(self, wide_trace):
        trace = _fresh_copy(wide_trace)
        pcs, classes, takens, targets, next_pcs = trace.list_columns()
        assert pcs == trace.pcs.tolist()
        assert classes == trace.branch_classes.tolist()
        assert takens == trace.takens.tolist()
        assert targets == trace.targets.tolist()
        assert next_pcs == trace.next_pcs.tolist()

    def test_one_int_object_per_pc(self, wide_trace):
        pcs, _classes, _takens, targets, next_pcs = _fresh_copy(wide_trace).list_columns()
        assert all(map(operator.is_, next_pcs[:-1], pcs[1:]))
        assert len({id(pc) for pc in pcs}) == len(set(pcs))
        first = {}
        for pc in pcs:
            first.setdefault(pc, pc)
        assert all(target is first.get(target, target) for target in targets)

    def test_unconnected_trace_keeps_its_recorded_successors(self):
        # A taken jump whose successor record is elsewhere: no validate()
        # has run, and next_pcs must still be what the records say.
        trace = Trace.from_entries(
            "broken",
            [
                TraceEntry(0x1000),
                TraceEntry(0x1004, BranchClass.UNCOND_DIRECT, True, 0x2000),
                TraceEntry(0x3000),
                TraceEntry(0x3004),
            ],
        )
        next_pcs = trace.list_columns()[4]
        assert next_pcs == trace.next_pcs.tolist() == [0x1004, 0x2000, 0x3004, 0x3008]


class TestSimulatorState:
    def test_fresh_simulator_allocates_no_l2_llc_or_btb_sets(self, wide_trace):
        sim = Simulator(wide_trace, SimConfig())
        for cache in (sim.hierarchy.l2, sim.hierarchy.llc):
            assert cache._sets == {}
            view = cache.all_sets()
            assert len(view) == cache.config.n_sets
            assert not any(view)
        assert sim.bpu.btb._sets == {}

    def test_run_allocates_only_touched_sets(self, wide_trace):
        sim = Simulator(wide_trace, SimConfig())
        sim.run()
        llc = sim.hierarchy.llc
        assert 0 < len(llc._sets) < llc.config.n_sets
        assert sum(len(entries) for entries in llc.all_sets()) == sum(
            len(entries) for entries in llc._sets.values()
        )
        btb = sim.bpu.btb
        assert 0 < len(btb._sets) < btb.config.n_sets

    def test_exec_busy_bounded_by_rob_not_cycles(self, wide_trace):
        sim = Simulator(wide_trace, replace(SimConfig(), ucp=UCPConfig(enabled=True)))
        backend = sim.backend
        busy = backend._exec_busy
        largest = 0

        def sample(_index):
            nonlocal largest
            largest = max(largest, len(busy))

        backend.commit_hook = sample
        result = sim.run()
        assert result.cycles > 10 * backend.config.rob_entries
        assert 0 < largest <= backend.config.rob_entries
        assert [cycle for cycle in busy if cycle <= result.cycles] == []

"""Memory budgets for the per-trace columns and the per-run state.

Sizes are counted with :mod:`tracemalloc`, which sees every Python and
numpy allocation of this process, so the counts do not depend on the
allocator or on what else the machine runs.  A flat buffer (``bytes``,
``array``) holds no int objects, so ``sys.getsizeof`` is its whole size.
"""

from __future__ import annotations

import operator
import sys
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from repro.core.configs import SimConfig, UCPConfig
from repro.core.kernel import build_columns, record_stream
from repro.core.pipeline import Simulator
from repro.isa import BranchClass, Trace, TraceEntry
from repro.isa.trace import narrow_column
from repro.workloads import load_workload

N_INSTRUCTIONS = 40_000
#: The suite trace with the most distinct PCs (about 8K) at 40K
#: instructions: the worst case for the shared PC ints.
WIDE_TRACE = "srv_05"
#: Bytes per instruction of all five list columns together: one pointer
#: for each of the three PC-valued columns (24 B), one byte each for the
#: branch class and taken columns, plus the distinct PC ints (34.1 B
#: measured on ``srv_05``).
COLUMN_BYTES_PER_INSTRUCTION = 37
#: Bytes per instruction of the backend's latency (``array('H')``) and
#: distance (``bytes``) columns.
BACKEND_COLUMN_BYTES_PER_INSTRUCTION = 4
#: Bytes per recorded branch of a prediction stream's kept output: an
#: ``array('I')`` index at most (narrower below 65,536 instructions) and
#: one flag byte.
STREAM_BYTES_PER_BRANCH = 5
#: Everything one trace keeps for a run: list columns, backend columns
#: and the recorded stream together.
TRACE_BYTES_PER_INSTRUCTION = 45


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


@pytest.fixture(scope="module")
def ucp_run(wide_trace):
    """A 40K UCP run: its simulator, result and the most ``_exec_busy``
    slots seen at any retirement."""
    sim = Simulator(wide_trace, replace(SimConfig(), ucp=UCPConfig(enabled=True)))
    busy = sim.backend._exec_busy
    largest = 0

    def sample(_index):
        nonlocal largest
        largest = max(largest, len(busy))

    sim.backend.commit_hook = sample
    result = sim.run()
    return sim, result, largest


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
        assert type(classes) is bytes and type(takens) is bytes
        assert list(classes) == trace.branch_classes.tolist()
        assert list(takens) == trace.takens.tolist()
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


class TestNarrowColumn:
    @pytest.mark.parametrize(
        "values,kind",
        [
            ([], "bytes"),
            ([0, 7, 255], "bytes"),
            ([1, 256], "H"),
            ([65_535], "H"),
            ([65_536], "I"),
            ([1 << 32], "q"),
        ],
    )
    def test_narrowest_buffer_holds_the_values(self, values, kind):
        column = narrow_column(np.array(values, dtype=np.int64))
        assert list(column) == values
        assert (column.typecode if isinstance(column, array) else "bytes") == kind

    def test_array_is_sized_exactly(self):
        column = narrow_column(np.arange(40_000))
        assert sys.getsizeof(column) - 2 * 40_000 < 128

    def test_negative_values_are_refused(self):
        with pytest.raises(ValueError):
            narrow_column(np.array([3, -1]))


class TestKernelState:
    def test_backend_columns_bytes_per_instruction(self, wide_trace):
        columns, allocated = _traced_bytes(
            lambda: build_columns(wide_trace, SimConfig().backend)
        )
        assert isinstance(columns.latency, array) and columns.latency.typecode == "H"
        assert type(columns.distance) is bytes
        per_instruction = allocated / len(wide_trace)
        assert per_instruction <= BACKEND_COLUMN_BYTES_PER_INSTRUCTION, (
            f"backend columns take {per_instruction:.1f} B per instruction"
        )

    def test_stream_bytes_per_branch(self, wide_trace):
        stream = record_stream(wide_trace, SimConfig())
        assert type(stream.flags) is bytes
        assert isinstance(stream.indices, array)
        branches = len(stream.flags)
        assert len(stream.indices) == branches + 1
        # Flat buffers hold no int objects, so their sizes are the output.
        kept = sys.getsizeof(stream) + sum(map(sys.getsizeof, (stream.indices, stream.flags)))
        per_branch = kept / branches
        assert per_branch <= STREAM_BYTES_PER_BRANCH, (
            f"a recorded stream keeps {per_branch:.1f} B per branch"
        )

    def test_trace_bytes_per_instruction(self, wide_trace):
        trace = _fresh_copy(wide_trace)
        config = SimConfig()

        def build():
            return (
                trace.list_columns(),
                build_columns(trace, config.backend),
                record_stream(trace, config),
            )

        _kept, allocated = _traced_bytes(build)
        per_instruction = allocated / len(trace)
        assert per_instruction <= TRACE_BYTES_PER_INSTRUCTION, (
            f"a trace keeps {per_instruction:.1f} B per instruction"
        )


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

    def test_exec_busy_bounded_by_rob_not_cycles(self, ucp_run):
        sim, result, largest = ucp_run
        backend = sim.backend
        assert result.cycles > 10 * backend.config.rob_entries
        assert 0 < largest <= backend.config.rob_entries
        assert [cycle for cycle in backend._exec_busy if cycle <= result.cycles] == []

    def test_completions_are_one_flat_buffer(self, ucp_run):
        sim, result, _largest = ucp_run
        completion = sim.backend._completion
        n = len(sim.trace)
        # One 8-byte slot per instruction and no int object per µ-op.
        assert type(completion) is array and completion.typecode == "q"
        assert len(completion) == n
        assert sys.getsizeof(completion) - 8 * n < 128
        assert sim.backend.completion_of(n - 1) <= result.cycles


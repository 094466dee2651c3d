"""The vectorised history builder and the hash rows consulted from it.

``history_rows`` must equal a live register pushed bit by bit (and the
one-fold reference ``FoldedHistory.recompute``) for any fold geometry,
and each predictor's ``hash_rows`` must equal its live lane hashes at
every trace-order consult: conditionals before their own push, indirects
after it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.tage_sc_l import TageScL, TageScLConfig, TageScLPrediction
from repro.common.history import (
    BranchHistory,
    FoldedHistory,
    FoldRows,
    history_rows,
    row_dtype,
)
from repro.core.configs import SimConfig
from repro.core.kernel.stream import Rows, consult_rows
from repro.isa.instruction import BranchClass
from repro.workloads import SUITE, load_workload

#: (TAGE-SC-L, ITTAGE) geometry pairs: the baseline and UCP's Alt-BP/Alt-Ind.
PAIRS = {
    "main": (SimConfig().branch_predictor, SimConfig().indirect_predictor),
    "alt": (TageScLConfig.small(), ITTAGEConfig.small()),
}

COND = int(BranchClass.COND_DIRECT)
INDIRECTS = (int(BranchClass.CALL_INDIRECT), int(BranchClass.INDIRECT))


def live_states(pcs, bits, geometry, path_bits):
    """(packed lanes, path) of a live register before each push and after
    the last."""
    register = BranchHistory(max(length for length, _ in geometry) + 1, path_bits)
    for length, width in geometry:
        register.direction.add_folded(length, width)
    states = []
    for pc, bit in zip(pcs, bits):
        states.append((register.direction.packed, register.path.value))
        register.push(pc, bit)
    states.append((register.direction.packed, register.path.value))
    return states


def packed_columns(lanes):
    return [int.from_bytes(lanes[:, k].tobytes(), "little") for k in range(lanes.shape[1])]


geometries = st.lists(
    st.tuples(st.integers(1, 48), st.integers(1, 16)), min_size=1, max_size=6
).map(tuple)


class TestHistoryRows:
    @settings(max_examples=150, deadline=None)
    @given(
        geometry=geometries,
        bits=st.lists(st.booleans(), max_size=120),
        pcs=st.lists(st.integers(0, 1 << 20), max_size=120),
        path_bits=st.integers(1, 16),
    )
    def test_equals_live_register_and_recompute(self, geometry, bits, pcs, path_bits):
        n = min(len(bits), len(pcs))
        bits, pcs = bits[:n], [4 * pc for pc in pcs[:n]]
        lanes, path = history_rows(
            np.array(pcs, dtype=np.int64), np.array(bits, dtype=np.uint8), geometry, path_bits
        )
        assert lanes.shape == (len(geometry), n + 1)
        assert lanes.dtype == np.uint16
        assert list(zip(packed_columns(lanes), path.tolist())) == live_states(
            pcs, bits, geometry, path_bits
        )
        # Each lane is FoldedHistory.recompute over the raw bits, newest first.
        for k in range(n + 1):
            newest_first = [int(bit) for bit in reversed(bits[:k])]
            for lane, (length, width) in enumerate(geometry):
                fold = FoldedHistory(length, width)
                fold.recompute(newest_first)
                assert lanes[lane, k] == fold.value

    def test_empty_trace(self):
        lanes, path = history_rows(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8), ((8, 3), (4, 16)), 16
        )
        assert lanes.shape == (2, 1) and not lanes.any()
        assert path.tolist() == [0]

    @pytest.mark.parametrize("width", range(1, 17))
    @pytest.mark.parametrize("n", [0, 1, 5, 37, 200])
    def test_every_width_and_length(self, width, n):
        """Fewer pushes than the longest fold, lengths that are not a
        multiple of the width, and every lane width."""
        rng = np.random.default_rng(width * 1000 + n)
        geometry = ((1, width), (width, width), (3 * width + 1, width), (160, width))
        pcs = (rng.integers(0, 1 << 18, n) * 4).astype(np.int64)
        bits = rng.integers(0, 2, n).astype(np.uint8)
        lanes, path = history_rows(pcs, bits, geometry, 16)
        states = live_states(pcs.tolist(), bits.tolist(), geometry, 16)
        assert list(zip(packed_columns(lanes), path.tolist())) == states

    def test_fold_rows_select_columns_lane_by_lane(self):
        rng = np.random.default_rng(5)
        geometry = ((160, 10), (17, 9), (4, 10))
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        lanes, _path = history_rows(np.zeros(300, dtype=np.int64), bits, geometry, 16)
        columns = np.flatnonzero(rng.integers(0, 2, 301))
        rows = FoldRows(bits, geometry, columns)
        assert len(rows) == 3
        for lane in range(3):
            assert rows[lane].dtype == np.uint16
            assert rows[lane].tolist() == lanes[lane, columns].tolist()

    def test_row_dtype_is_the_narrowest(self):
        assert row_dtype(8, 7, 1) == np.uint8
        assert row_dtype(8, 9) == np.uint16


class TestRows:
    def test_cursor_reads_rows_in_order(self):
        data = np.array([[1, 300], [2, 65535]], dtype=np.uint16)
        rows = Rows(data)
        assert list(rows.cursor()) == [(1, 300), (2, 65535)]

    def test_narrow_rows_pack_one_byte_per_hash(self):
        rows = Rows(np.array([[1, 2, 255]], dtype=np.uint8))
        assert rows.data.nbytes == 3
        assert list(rows.cursor()) == [(1, 2, 255)]


def live_hashes(trace, cond_config, indirect_config):
    """Every trace-order consult hashed from a live register pushed as the
    predictors used to be: (conditional rows, indirect rows)."""
    cond = TageScL(cond_config)
    indirect = ITTAGE(indirect_config, share=cond.histories)
    register = cond.histories
    pcs, classes, takens, _targets, _next_pcs = trace.list_columns()
    cond_rows, indirect_rows = [], []
    for i in trace.branch_classes.nonzero()[0].tolist():
        pc = pcs[i]
        if classes[i] == COND:
            pred = TageScLPrediction()
            cond.tage.hash(pc, register, pred)
            cond.sc.hash(pc, register.direction, pred)
            cond_rows.append(pred.indices + pred.tags + pred.sc_indices)
            register.push(pc, takens[i])
            continue
        register.push(pc, True)
        if classes[i] in INDIRECTS:
            ipred = indirect.predict(pc)
            indirect_rows.append(ipred.indices + ipred.tags)
    return cond_rows, indirect_rows


class TestHashRows:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_rows_equal_live_hashes_on_every_suite_trace(self, name):
        cond_config, indirect_config = PAIRS[name]
        for workload in SUITE:
            trace = load_workload(workload, 2_000).trace
            cond = TageScL(cond_config)
            indirect = ITTAGE(indirect_config, share=cond.histories)
            cond_rows, indirect_rows = consult_rows(trace, cond, indirect)
            live_cond, live_indirect = live_hashes(trace, cond_config, indirect_config)
            assert list(cond_rows.cursor()) == live_cond, workload
            assert list(indirect_rows.cursor()) == live_indirect, workload

    def test_alt_rows_are_one_byte_per_hash(self):
        trace = load_workload("int_02", 1_000).trace
        cond_config, indirect_config = PAIRS["alt"]
        cond = TageScL(cond_config)
        cond_rows, indirect_rows = consult_rows(
            trace, cond, ITTAGE(indirect_config, share=cond.histories)
        )
        assert cond_rows.row.format == "<22B"
        assert indirect_rows.row.format == "<10B"
        assert cond_rows.data.nbytes == 22 * len(cond_rows.data)

    def test_without_indirect_predictor(self):
        trace = load_workload("dc_interp_01", 1_000).trace
        cond = TageScL(PAIRS["alt"][0])
        cond_rows, indirect_rows = consult_rows(trace, cond, None)
        assert indirect_rows is None
        assert len(cond_rows.data) == int((trace.branch_classes == COND).sum())

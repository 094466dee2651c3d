"""Tests for global history registers and folded (CSR) views."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.common.history import (
    LANE_BITS,
    LANE_BYTEORDER,
    BranchHistory,
    FoldedHistory,
    GlobalHistory,
    PathHistory,
    lane_struct,
    pack_lanes,
)


def reference_fold(bits: list[int], length: int, width: int) -> int:
    """Naive folding: XOR of width-bit chunks of the newest `length` bits."""
    folded = 0
    for position, bit in enumerate(bits[:length]):
        if bit:
            folded ^= 1 << (position % width)
    return folded


class TestFoldedHistory:
    def test_matches_reference_after_pushes(self):
        history = GlobalHistory(capacity=64)
        lane = history.add_folded(length=13, width=5)
        pushed: list[int] = []
        for i in range(200):
            bit = (i * 7 + 3) % 3 == 0
            history.push(bit)
            pushed.insert(0, int(bit))  # newest first
            assert history.lane(lane) == reference_fold(pushed, 13, 5)

    @given(
        length=st.integers(1, 40),
        width=st.integers(1, 16),
        bits=st.lists(st.booleans(), min_size=0, max_size=120),
    )
    def test_incremental_equals_reference(self, length, width, bits):
        history = GlobalHistory(capacity=128)
        lane = history.add_folded(length, width)
        pushed: list[int] = []
        for bit in bits:
            history.push(bit)
            pushed.insert(0, int(bit))
        assert history.lane(lane) == reference_fold(pushed, length, width)

    def test_value_stays_within_width(self):
        history = GlobalHistory(capacity=32)
        lane = history.add_folded(31, 7)
        for i in range(500):
            history.push(i % 2 == 0)
            assert 0 <= history.lane(lane) < (1 << 7)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)


class TestGlobalHistory:
    def test_push_and_bit(self):
        history = GlobalHistory(capacity=8)
        history.push(True)
        history.push(False)
        assert history.bit(0) == 0  # newest
        assert history.bit(1) == 1

    def test_value_window(self):
        history = GlobalHistory(capacity=16)
        for bit in [1, 1, 0, 1]:
            history.push(bool(bit))
        assert history.value(4) == 0b1101

    def test_capacity_wraps(self):
        history = GlobalHistory(capacity=4)
        for _ in range(10):
            history.push(True)
        assert history.value(4) == 0b1111
        history.push(False)
        assert history.value(4) == 0b1110

    def test_snapshot_restore(self):
        history = GlobalHistory(capacity=32)
        lane = history.add_folded(20, 6)
        for i in range(25):
            history.push(i % 3 == 0)
        state = history.snapshot()
        value_before, fold_before = history.value(32), history.lane(lane)
        for i in range(10):
            history.push(i % 2 == 0)
        history.restore(state)
        assert history.value(32) == value_before
        assert history.lane(lane) == fold_before

    def test_copy_from_resynchronises(self):
        main = GlobalHistory(capacity=32)
        alt = GlobalHistory(capacity=32)
        main_lane = main.add_folded(16, 5)
        alt_lane = alt.add_folded(16, 5)
        for i in range(40):
            main.push(i % 5 == 0)
        alt.copy_from(main)
        assert alt.value(32) == main.value(32)
        assert alt.lane(alt_lane) == main.lane(main_lane)
        # Diverge after copy: independent state.
        alt.push(True)
        main.push(False)
        assert alt.value(32) != main.value(32)

    def test_copy_from_mismatched_geometry(self):
        main = GlobalHistory(capacity=32)
        other = GlobalHistory(capacity=16)
        with pytest.raises(ValueError):
            main.copy_from(other)

    def test_bad_index(self):
        history = GlobalHistory(capacity=4)
        with pytest.raises(IndexError):
            history.bit(4)

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_newest_bit_is_last_pushed(self, bits):
        history = GlobalHistory(capacity=64)
        for bit in bits:
            history.push(bit)
        assert history.bit(0) == int(bits[-1])


class TestPathHistory:
    def test_push_mixes_pc(self):
        path = PathHistory(bits=16)
        path.push(0x1000)
        first = path.value
        path.push(0x1004)
        assert path.value != first

    def test_snapshot_restore(self):
        path = PathHistory()
        path.push(0x4000)
        saved = path.snapshot()
        path.push(0x4010)
        path.restore(saved)
        assert path.value == saved

    def test_bounded(self):
        path = PathHistory(bits=8)
        for pc in range(0, 4096, 4):
            path.push(pc)
            assert 0 <= path.value < 256


# ----------------------------------------------------------------------
# The packed register against per-fold FoldedHistory references
# ----------------------------------------------------------------------


class ReferenceHistory:
    """Raw bits plus one FoldedHistory per registered fold."""

    def __init__(self, geometry):
        self.bits: list[int] = []  # newest first
        self.folds = [FoldedHistory(length, width) for length, width in geometry]

    def push(self, taken: bool) -> None:
        new_bit = int(taken)
        for fold in self.folds:
            out_bit = self.bits[fold.length - 1] if len(self.bits) >= fold.length else 0
            fold.update(new_bit, out_bit)
        self.bits.insert(0, new_bit)

    def state(self):
        return list(self.bits), [fold.value for fold in self.folds]

    def set_state(self, state) -> None:
        bits, values = state
        self.bits = list(bits)
        for fold, value in zip(self.folds, values):
            fold.value = value


def assert_matches(history: GlobalHistory, reference: ReferenceHistory) -> None:
    assert [history.lane(k) for k in range(len(history.geometry))] == [
        fold.value for fold in reference.folds
    ]
    newest = reference.bits[: history.capacity]
    assert history.value(history.capacity) == sum(bit << i for i, bit in enumerate(newest))


def build(capacity: int, geometry) -> GlobalHistory:
    history = GlobalHistory(capacity)
    for length, width in geometry:
        history.add_folded(length, width)
    return history


def predictor_geometries():
    """The real main and Alt TAGE+SC+ITTAGE registers (and Alt without ITTAGE)."""
    from repro.branch.ittage import ITTAGE, ITTAGEConfig
    from repro.branch.tage_sc_l import TageScL, TageScLConfig
    from repro.core.configs import SimConfig

    config = SimConfig()
    main = TageScL(config.branch_predictor)
    ITTAGE(config.indirect_predictor, share=main.histories)
    alt = TageScL(TageScLConfig.small())
    ITTAGE(ITTAGEConfig.small(), share=alt.histories)
    noind = TageScL(TageScLConfig.small())
    return {
        name: (bp.histories.direction.capacity, bp.histories.direction.geometry)
        for name, bp in (("main", main), ("alt", alt), ("alt_noind", noind))
    }


GEOMETRIES = predictor_geometries()

#: One register operation: a push, or a checkpoint operation.
OPS = st.one_of(st.booleans(), st.sampled_from(["snapshot", "restore", "copy"]))


def run_ops(history: GlobalHistory, reference: ReferenceHistory, ops) -> None:
    saved = None
    for op in ops:
        if op == "snapshot":
            saved = history.snapshot(), reference.state()
        elif op == "restore":
            if saved is not None:
                history.restore(saved[0])
                reference.set_state(saved[1])
        elif op == "copy":
            # Continue on a resynchronised twin; the original keeps its state.
            twin = history.fresh()
            twin.copy_from(history)
            before = history.snapshot()
            twin.push(True)
            assert history.snapshot() == before
            twin.copy_from(history)
            history = twin
        else:
            history.push(op)
            reference.push(op)
        assert_matches(history, reference)


class TestPackedLanes:
    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.lists(
            st.tuples(st.integers(1, 80), st.integers(1, 16)), min_size=1, max_size=24
        ),
        ops=st.lists(OPS, max_size=160),
    )
    def test_mixed_widths_and_lengths_match_references(self, geometry, ops):
        capacity = max(length for length, _ in geometry) + 3
        run_ops(build(capacity, geometry), ReferenceHistory(geometry), ops)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(OPS, min_size=1, max_size=400))
    def test_predictor_geometries_match_references(self, name, ops):
        capacity, geometry = GEOMETRIES[name]
        run_ops(build(capacity, geometry), ReferenceHistory(geometry), ops)

    def test_long_run_through_every_fold_length(self):
        capacity, geometry = GEOMETRIES["main"]
        history, reference = build(capacity, geometry), ReferenceHistory(geometry)
        for i in range(3 * capacity):
            taken = (i * 2654435761) >> 7 & 1 == 1
            history.push(taken)
            reference.push(taken)
        assert_matches(history, reference)

    def test_lanes_round_trip(self):
        values = (0, 1, 0xFFFF, 0x1234, 7)
        packed = pack_lanes(values)
        assert [(packed >> (LANE_BITS * k)) & 0xFFFF for k in range(5)] == list(values)
        assert lane_struct(5).unpack(packed.to_bytes(10, LANE_BYTEORDER)) == values

    def test_add_folded_guards(self):
        history = GlobalHistory(capacity=16)
        with pytest.raises(ValueError):
            history.add_folded(17, 4)  # past capacity
        with pytest.raises(ValueError):
            history.add_folded(8, LANE_BITS + 1)  # wider than a lane
        with pytest.raises(ValueError):
            history.add_folded(0, 4)

    def test_copy_from_rejects_other_fold_geometry(self):
        main, other = GlobalHistory(capacity=32), GlobalHistory(capacity=32)
        main.add_folded(16, 5)
        other.add_folded(16, 6)
        with pytest.raises(ValueError):
            main.copy_from(other)

    def test_restore_rejects_foreign_snapshot(self):
        main, other = GlobalHistory(capacity=32), GlobalHistory(capacity=32)
        main.add_folded(16, 5)
        other.add_folded(12, 5)
        other.push(True)
        with pytest.raises(ValueError):
            main.restore(other.snapshot())


class TestBranchHistory:
    def test_fresh_copy_and_diverge(self):
        register = BranchHistory(capacity=40)
        lane = register.direction.add_folded(31, 7)
        for i in range(50):
            register.push(0x1000 + 4 * i, i % 3 == 0)
        twin = register.fresh()
        assert twin.direction.geometry == register.direction.geometry
        twin.copy_from(register)
        assert twin.direction.snapshot() == register.direction.snapshot()
        assert twin.path.value == register.path.value
        before = register.direction.lane(lane)
        twin.push(0x2000, True)
        assert twin.direction.snapshot() != register.direction.snapshot()
        assert register.direction.lane(lane) == before

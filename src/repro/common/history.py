"""Global branch history and folded-history (circular shift register) views.

TAGE-family predictors index and tag their tables with hashes of very long
global history vectors (up to several hundred bits).  Real hardware keeps
*folded* copies of the history — circular shift registers (CSRs) that
maintain ``history % (2**width - 1)``-style compressions incrementally, one
XOR per inserted bit.

:class:`GlobalHistory` is a bounded bit vector whose folded views all live
in one packed integer, one :data:`LANE_BITS`-bit lane per fold in
registration order.  A push updates every lane at once with a constant
number of big-int operations: a masked rotate per fold width, the new bit
XOR-ed into every lane, and the outgoing bits taken from lookup tables
keyed on the raw history.  Predictors hash all their tables lane-wise from
:attr:`GlobalHistory.packed` (:func:`pack_lanes` / :func:`lane_struct`,
with per-PC terms cached in :class:`LaneTerms`).
:class:`FoldedHistory` is the one-fold reference model of the same CSR.

Where the pushed sequence is known in advance (a trace's predicted path),
:class:`FoldRows` builds each lane's value before every push with numpy
(:func:`history_rows` for all lanes at once), and predictors hash whole
traces from those rows (``hash_rows``) instead of pushing a live
register.

One :class:`BranchHistory` (direction register plus path bits) holds a
whole path's history: TAGE, the statistical corrector and ITTAGE register
their folds on the same one, as in real cores.  The alternate-path
predictors of UCP (paper Section IV-C) resynchronise a second register by
copying.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from struct import Struct
from typing import Any, Final, Protocol, TypeVar

import numpy as np
import numpy.typing as npt

#: Bits per folded lane of the packed register; folds are at most this wide.
LANE_BITS = 16
#: Byte order of a packed value's ``to_bytes`` form (see :func:`lane_struct`).
LANE_BYTEORDER: Final = "little"
#: Distinct fold lengths per outgoing-bit lookup table (2**N entries each).
_OUT_GROUP = 8

#: Fold geometry: ``(length, width)`` per lane, in lane order.
Geometry = tuple[tuple[int, int], ...]
#: A :meth:`GlobalHistory.snapshot`: raw bits, packed lanes, geometry.
Snapshot = tuple[int, int, Geometry]

_T = TypeVar("_T")


def lane_struct(lanes: int) -> Struct:
    """The byte layout of ``lanes`` lanes: ``lane_struct(n).unpack(
    packed.to_bytes(2 * n, LANE_BYTEORDER))`` is the ``n`` lowest lanes of
    ``packed``, lane 0 first.  Hot paths keep the bound ``unpack``."""
    return Struct(f"<{lanes}H")


def pack_lanes(values: Sequence[int]) -> int:
    """Pack per-lane values (each < ``2**LANE_BITS``), lane 0 lowest."""
    return int.from_bytes(lane_struct(len(values)).pack(*values), LANE_BYTEORDER)


class LaneTerms(dict[int, _T]):
    """Per-key hash terms built on first use: ``terms[key]`` calls
    ``build(key)`` once per key (a PC or a path value), then is a plain
    dict lookup."""

    def __init__(self, build: Callable[[int], _T]) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key: int) -> _T:
        value = self[key] = self.build(key)
        return value


#: Unsigned integer arrays of any width (the builder's working type).
_UInts = npt.NDArray[np.unsignedinteger[Any]]


def row_dtype(*widths: int) -> np.dtype[Any]:
    """The narrowest unsigned dtype holding values of every bit width in
    ``widths`` (a ``hash_rows`` row's element type)."""
    return np.dtype(np.uint8 if max(widths) <= 8 else np.uint16)


def _rotate_left(values: _UInts, shift: _UInts | np.uint64, width: int) -> _UInts:
    """Rotate each ``width``-bit value left by ``shift`` (below ``width``)."""
    mask = np.uint64((1 << width) - 1)
    return ((values << shift) | (values >> (np.uint64(width) - shift))) & mask


def _whole_fold(bits: _UInts, width: int) -> _UInts:
    """Column ``k``: the ``width``-bit fold of *all* of the first ``k``
    bits (bit ``j`` at position ``(k - 1 - j) % width``), for ``k`` up to
    ``len(bits)``.

    Bit ``j`` is placed at ``(-1 - j) % width`` and XOR-accumulated; then
    rotating column ``k`` left by ``k % width`` ages every bit into place.
    """
    n = len(bits)
    placed = bits << ((-1 - np.arange(n)) % width).astype(np.uint64)
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.bitwise_xor.accumulate(placed, out=prefix[1:])
    return _rotate_left(prefix, (np.arange(n + 1) % width).astype(np.uint64), width)


def _fold(whole: _UInts, length: int, width: int) -> _UInts:
    """A ``length``-bit fold from :func:`_whole_fold`: cancel the bits
    older than ``length``, i.e. the whole fold ``length`` pushes earlier,
    aged ``length`` more positions."""
    fold = whole.copy()
    older = whole[: max(0, len(whole) - length)]
    fold[length:] ^= _rotate_left(older, np.uint64(length % width), width)
    return fold


class LaneRows(Protocol):
    """Per-lane register states, one value per consult: ``rows[l]`` is
    lane ``l``'s (a :class:`FoldRows`, or a :func:`history_rows` matrix)."""

    def __getitem__(self, lane: int) -> npt.NDArray[np.uint16]: ...


class FoldRows:
    """The folds of a register pushed with ``bits`` from empty, built one
    lane at a time on request, so no matrix of every lane is held.

    ``rows[l]`` is fold ``geometry[l]``'s value at each of ``columns``,
    where column ``k`` is the state before push ``k`` (``len(bits)``: after
    the last).
    """

    def __init__(
        self,
        bits: npt.NDArray[np.uint8],
        geometry: Geometry,
        columns: npt.NDArray[np.intp] | slice = slice(None),
    ) -> None:
        self._bits = bits.astype(np.uint64)
        self._geometry = geometry
        self._columns = columns
        self._wholes: dict[int, _UInts] = {}

    def __len__(self) -> int:
        return len(self._geometry)

    def __getitem__(self, lane: int) -> npt.NDArray[np.uint16]:
        length, width = self._geometry[lane]
        whole = self._wholes.get(width)
        if whole is None:
            whole = self._wholes[width] = _whole_fold(self._bits, width)
        return _fold(whole, length, width)[self._columns].astype(np.uint16)


def path_rows(pcs: npt.NDArray[np.int64], path_bits: int) -> npt.NDArray[np.int64]:
    """The :class:`PathHistory` value before each push of ``pcs`` and
    after the last: a fold too, one mixed bit per push that never wraps."""
    mixed = (((pcs >> 2) ^ (pcs >> 5)) & 1).astype(np.uint64)
    return _fold(_whole_fold(mixed, path_bits), path_bits, path_bits).astype(np.int64)


def history_rows(
    pcs: npt.NDArray[np.int64],
    bits: npt.NDArray[np.uint8],
    geometry: Geometry,
    path_bits: int,
) -> tuple[npt.NDArray[np.uint16], npt.NDArray[np.int64]]:
    """Every state a :class:`BranchHistory` passes through when pushed
    ``(pcs[k], bits[k])`` for ``k = 0, 1, ...`` from empty.

    Returns ``(lanes, path)``: ``lanes[l, k]`` is fold ``geometry[l]``'s
    value (lane ``l`` of :attr:`GlobalHistory.packed`) and ``path[k]``
    the :class:`PathHistory` value before push ``k``; column
    ``len(pcs)`` is the state after the last push.  Equal to pushing a
    live register, bit for bit (``FoldedHistory.recompute`` defines each
    fold: raw bit ``p``, newest first, XORs into position ``p % width``).
    """
    rows = FoldRows(bits, geometry)
    lanes = np.empty((len(geometry), len(bits) + 1), dtype=np.uint16)
    for lane in range(len(geometry)):
        lanes[lane] = rows[lane]
    return lanes, path_rows(pcs, path_bits)


class FoldedHistory:
    """Incrementally folded view of the most recent ``length`` history bits.

    Folds ``length`` bits down to ``width`` bits by XOR-ing ``width``-bit
    chunks, maintained in O(1) per inserted bit exactly like a hardware CSR.
    """

    __slots__ = ("length", "width", "value", "_out_point", "_mask")

    def __init__(self, length: int, width: int) -> None:
        if length < 1 or width < 1:
            raise ValueError("length and width must be positive")
        self.length = length
        self.width = width
        self.value = 0
        # Position inside the folded register where the outgoing (oldest)
        # bit lands after `length` rotations.
        self._out_point = length % width
        self._mask = (1 << width) - 1

    def update(self, new_bit: int, out_bit: int) -> None:
        """Insert ``new_bit`` and retire ``out_bit`` (the bit aged out).

        All folded bits rotate one position left (each raw bit ages by one
        index), the new bit lands at position 0, and the outgoing bit —
        which the rotation carried to position ``length % width`` — is
        cancelled by XOR.
        """
        mask = self._mask
        rotated = ((self.value << 1) & mask) | (self.value >> (self.width - 1))
        rotated ^= new_bit & 1
        rotated ^= (out_bit & 1) << self._out_point
        self.value = rotated & mask

    def recompute(self, bits: list[int]) -> None:
        """Rebuild the folded value from the raw ``bits`` (newest first)."""
        folded = 0
        for position, bit in enumerate(bits[: self.length]):
            if bit:
                folded ^= 1 << (position % self.width)
        self.value = folded

    def __repr__(self) -> str:
        return f"FoldedHistory(length={self.length}, width={self.width}, value={self.value:#x})"


class _Layout:
    """Push constants for one fold geometry, shared by every register
    with that geometry (see :func:`_layout`)."""

    __slots__ = ("geometry", "shift_mask", "wraps", "ones", "outs")

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        shift_mask = ones = 0
        wraps: dict[int, int] = {}
        out_terms: dict[int, int] = {}
        for lane, (length, width) in enumerate(geometry):
            one = 1 << (LANE_BITS * lane)
            ones |= one
            # Rotate left within the lane: bits 1..width-1 come from the
            # one-bit shift, bit 0 from the lane's top bit (one masked
            # shift per distinct width).
            shift_mask |= ((1 << width) - 2) * one
            wraps[width - 1] = wraps.get(width - 1, 0) | one
            # The bit leaving a length-L fold is raw bit L-1; it is
            # cancelled at lane position L % width.
            out_terms[length] = out_terms.get(length, 0) ^ (one << (length % width))
        self.shift_mask = shift_mask
        self.ones = ones
        self.wraps = tuple(sorted(wraps.items()))
        # Per group of up to _OUT_GROUP lengths: the raw-bit select mask
        # and the XOR term for every combination of selected bits.
        outs: list[tuple[int, dict[int, int]]] = []
        lengths = sorted(out_terms)
        for start in range(0, len(lengths), _OUT_GROUP):
            select = 0
            table = {0: 0}
            for length in lengths[start : start + _OUT_GROUP]:
                bit = 1 << (length - 1)
                term = out_terms[length]
                select |= bit
                table.update({key | bit: value ^ term for key, value in table.items()})
            outs.append((select, table))
        self.outs = tuple(outs)


_LAYOUTS: dict[Geometry, _Layout] = {}


def _layout(geometry: Geometry) -> _Layout:
    """The cached push layout for ``geometry`` (built once per process)."""
    layout = _LAYOUTS.get(geometry)
    if layout is None:
        layout = _LAYOUTS[geometry] = _Layout(geometry)
    return layout


class GlobalHistory:
    """A bounded global branch-history register with packed folded views.

    Newest bit is bit 0.  Folded views registered through :meth:`add_folded`
    are kept consistent on every :meth:`push`; lane ``k`` of :attr:`packed`
    holds the ``k``-th registered fold.  ``snapshot``/``restore`` and
    ``copy_from`` support the checkpointing that alternate-path prediction
    requires.
    """

    __slots__ = ("capacity", "packed", "_bits", "_geometry", "_layout", "_capacity_mask")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Every folded view, lane ``k`` at bits ``LANE_BITS*k`` upward.
        self.packed = 0
        self._bits = 0  # newest bit is LSB
        self._geometry: Geometry = ()
        # Resolved from the layout cache at the first push after the last
        # add_folded, so registering n folds never builds n layouts.
        self._layout: _Layout | None = None
        self._capacity_mask = (1 << capacity) - 1

    def add_folded(self, length: int, width: int) -> int:
        """Register a folded view over the newest ``length`` bits; returns
        its lane, the next free one."""
        if length > self.capacity:
            raise ValueError(f"fold length {length} exceeds capacity {self.capacity}")
        if length < 1 or width < 1:
            raise ValueError("length and width must be positive")
        if width > LANE_BITS:
            raise ValueError(f"fold width {width} exceeds the {LANE_BITS}-bit lane")
        self._geometry += ((length, width),)
        self._layout = None
        return len(self._geometry) - 1

    @property
    def geometry(self) -> Geometry:
        """``(length, width)`` of every fold, in lane order."""
        return self._geometry

    def lane(self, index: int) -> int:
        """The folded value in lane ``index``."""
        return (self.packed >> (LANE_BITS * index)) & ((1 << LANE_BITS) - 1)

    def _settle(self) -> _Layout:
        layout = self._layout = _layout(self._geometry)
        # Adopt the cached geometry object: copy_from between registers of
        # one geometry then compares by identity.
        self._geometry = layout.geometry
        return layout

    def push(self, taken: bool) -> None:
        """Insert one direction bit (speculatively or at update time)."""
        layout = self._layout or self._settle()
        bits = self._bits
        packed = self.packed
        folded = (packed << 1) & layout.shift_mask
        for shift, ones in layout.wraps:
            folded |= (packed >> shift) & ones
        if taken:
            folded ^= layout.ones
        for select, table in layout.outs:
            folded ^= table[bits & select]
        self.packed = folded
        self._bits = ((bits << 1) | (1 if taken else 0)) & self._capacity_mask

    def bit(self, index: int) -> int:
        """Return history bit ``index`` (0 == newest)."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"history index {index} out of range")
        return (self._bits >> index) & 1

    def value(self, length: int) -> int:
        """Return the newest ``length`` bits as an integer."""
        if length > self.capacity:
            raise ValueError(f"requested {length} bits from {self.capacity}-bit history")
        return self._bits & ((1 << length) - 1)

    def snapshot(self) -> Snapshot:
        """Capture raw bits and all folded values for later :meth:`restore`."""
        return self._bits, self.packed, self._geometry

    def restore(self, state: Snapshot) -> None:
        bits, packed, geometry = state
        if geometry != self._geometry:
            raise ValueError("snapshot does not match registered folds")
        self._bits = bits
        self.packed = packed

    def copy_from(self, other: GlobalHistory) -> None:
        """Adopt another history's contents (used to resync the alt-path GHR).

        Both histories must have identical capacity and fold geometry.
        """
        if other.capacity != self.capacity:
            raise ValueError("history capacities differ")
        if other._geometry is not self._geometry and other._geometry != self._geometry:
            raise ValueError("fold geometry differs")
        self._bits = other._bits
        self.packed = other.packed

    def fresh(self) -> GlobalHistory:
        """An empty register with this one's capacity and fold geometry."""
        twin = GlobalHistory(self.capacity)
        twin._geometry = self._geometry
        twin._layout = self._layout
        return twin

    def __repr__(self) -> str:
        return f"GlobalHistory(capacity={self.capacity}, folds={len(self._geometry)})"


class PathHistory:
    """A short path-history register mixing in low PC bits per branch.

    Used by TAGE/ITTAGE index hashes to disambiguate identical direction
    histories reached through different code paths.
    """

    __slots__ = ("bits", "value", "_mask")

    def __init__(self, bits: int = 32) -> None:
        self.bits = bits
        self.value = 0
        self._mask = (1 << bits) - 1

    def push(self, pc: int) -> None:
        # PCs are 4-byte aligned, so mix from bit 2 upward.
        mixed = ((pc >> 2) ^ (pc >> 5)) & 1
        self.value = ((self.value << 1) ^ mixed) & self._mask

    def snapshot(self) -> int:
        return self.value

    def restore(self, state: int) -> None:
        self.value = state


class BranchHistory:
    """One path's history register: direction bits and path bits.

    Every predictor hashing this path's history registers its folds on
    :attr:`direction`, so each branch costs one :meth:`push` and a new
    alternate path one :meth:`copy_from`.
    """

    __slots__ = ("direction", "path")

    def __init__(self, capacity: int, path_bits: int = 16) -> None:
        self.direction = GlobalHistory(capacity)
        self.path = PathHistory(path_bits)

    def push(self, pc: int, taken: bool) -> None:
        """Insert one branch (direction and path)."""
        self.direction.push(taken)
        self.path.push(pc)

    def copy_from(self, other: BranchHistory) -> None:
        self.direction.copy_from(other.direction)
        self.path.restore(other.path.snapshot())

    def fresh(self) -> BranchHistory:
        """An empty register with this one's geometry (for another path)."""
        twin = BranchHistory(self.direction.capacity, self.path.bits)
        twin.direction = self.direction.fresh()
        return twin

    def __repr__(self) -> str:
        return f"BranchHistory({self.direction!r}, path_bits={self.path.bits})"

"""The recorded branch stream: the BPU's only predictor input.

The baseline predictor stack (TAGE-SC-L + ITTAGE on one folded global
history register) is *timing-independent*: the BPU stalls at every
misprediction (no wrong-path fetch), so it processes each branch exactly
once, in trace order, and every predictor consult/update sequence is a
pure function of (trace, predictor configs) — block boundaries, FTQ
pressure and stall cycles only change *when* a branch is processed,
never *what* the predictors see.

:func:`record_stream` runs that sequence once per (trace, predictor
config) pair and keeps, per branch in trace order,

* the trace index (plus a final ``len(trace)`` sentinel), and
* a flag byte: for a conditional, the predicted direction and the
  TAGE-Conf / UCP-Conf H2P bits; for an indirect or indirect call, the
  mispredict bit.

Every index and tag those consults hash is a function of the trace
alone, so no live history register is pushed: :func:`consult_rows` builds
every consult's hashes for a whole trace with numpy
(:class:`~repro.common.history.FoldRows` plus the predictors'
``hash_rows``), and the pass reads them back one packed row per consult.
Only the table reads and writes run per branch.  UCP's Alt-BP/Alt-Ind
training follows the same trace order and reads its own rows
(:func:`get_rows`).

:class:`repro.frontend.bpu.BPU` reads the stream with one cursor.
Everything *not* recorded here (BTB contents, RAS, bank sets,
``taken_target``) stays live in the BPU: those structures are cheap, and
UCP reads them mid-run.

Streams and rows are cached per live trace object in a weak-key map (the
workload suite caches traces per (name, length), so repeated
simulations — perf repeats, experiment matrices, served jobs — record
once and replay many times).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterator, Sequence
from struct import Struct
from typing import Any, TypeVar, cast

import numpy as np
import numpy.typing as npt

from repro.branch.confidence import tage_conf_is_h2p, ucp_conf_is_h2p
from repro.branch.ittage import ITTAGE
from repro.branch.tage_sc_l import TageScL
from repro.common.history import FoldRows, path_rows
from repro.core.configs import SimConfig
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace, narrow_column

_COND_DIRECT = int(BranchClass.COND_DIRECT)
_CALL_INDIRECT = int(BranchClass.CALL_INDIRECT)
_INDIRECT = int(BranchClass.INDIRECT)

#: Flag bits of one recorded branch.
PREDICTED_TAKEN = 1
TAGE_H2P = 2
UCP_H2P = 4
INDIRECT_MISPREDICTED = 8

#: Cache key: the two predictor configs (frozen dataclasses).  BTB and
#: RAS configuration is deliberately absent — neither feeds the TAGE or
#: ITTAGE consult/update sequence.
StreamKey = tuple[object, object]


class PredictionStream:
    """The recorded predictor outcomes for one (trace, config) pair."""

    __slots__ = ("indices", "flags")

    def __init__(self, indices: Sequence[int], flags: bytes) -> None:
        #: Trace index of every branch in trace order, then ``len(trace)``
        #: (the narrowest flat buffer, see
        #: :func:`~repro.isa.trace.narrow_column`).
        self.indices = indices
        #: One flag byte per branch (the bits above; 0 for branches no
        #: predictor consults).
        self.flags = flags


class Rows:
    """One hash row per consult, packed for a ``struct`` cursor."""

    __slots__ = ("row", "data")

    def __init__(self, rows: npt.NDArray[np.unsignedinteger[Any]]) -> None:
        #: The layout of one row (its dtype's ``struct`` code per column).
        self.row = Struct(f"<{rows.shape[1]}{rows.dtype.char}")
        #: The rows themselves, read in place (one contiguous buffer).
        self.data = np.ascontiguousarray(rows)

    def cursor(self) -> Iterator[tuple[int, ...]]:
        """The rows in consult order, one per ``next``."""
        return self.row.iter_unpack(self.data)


def branch_pushes(
    trace: Trace,
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.uint8], npt.NDArray[np.uint8]]:
    """Every branch's PC, pushed direction bit (the outcome of a
    conditional, 1 for any unconditional) and class, in trace order."""
    at = trace.branch_classes.nonzero()[0]
    classes = trace.branch_classes[at]
    bits = np.where(classes == _COND_DIRECT, trace.takens[at], True).astype(np.uint8)
    return trace.pcs[at], bits, classes


def consult_rows(trace: Trace, cond: TageScL, indirect: ITTAGE | None) -> tuple[Rows, Rows | None]:
    """The hashes of every trace-order consult of ``cond`` and of
    ``indirect`` (whose folds share its register, or None), from one
    numpy build of the register's states.

    A conditional hashes the state before its own push; an indirect the
    state after it, since its unconditional push comes first.
    """
    pcs, bits, classes = branch_pushes(trace)
    histories = cond.histories
    geometry = histories.direction.geometry
    path = path_rows(pcs, histories.path.bits)
    at = np.flatnonzero(classes == _COND_DIRECT)
    cond_rows = Rows(cond.hash_rows(pcs[at], FoldRows(bits, geometry, at), path[at]))
    if indirect is None:
        return cond_rows, None
    at = np.flatnonzero((classes == _INDIRECT) | (classes == _CALL_INDIRECT)) + 1
    return cond_rows, Rows(indirect.hash_rows(pcs[at - 1], FoldRows(bits, geometry, at), path[at]))


def stream_key(config: SimConfig) -> StreamKey:
    return (config.branch_predictor, config.indirect_predictor)


def record_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """One pass over the trace's branches, consulting from hash rows.

    The call order per branch class is the decoupled frontend's —
    predictor state is path-dependent, so any reordering would change
    later predictions:

    * conditional: ``cond.consult_row``, ``cond.train``;
    * indirect / indirect call: ``indirect.consult_row``,
      ``indirect.update``.

    Every branch's history push is already in the rows.  Returns and
    direct jumps/calls consult no predictor (the RAS stays live in the
    BPU).
    """
    cond = TageScL(config.branch_predictor)
    indirect = ITTAGE(config.indirect_predictor, share=cond.histories)
    cond_rows, indirect_rows = consult_rows(trace, cond, indirect)
    next_cond = cond_rows.cursor().__next__
    next_indirect = cast(Rows, indirect_rows).cursor().__next__
    pcs, classes, takens, targets, _next_pcs = trace.list_columns()

    branch_at = trace.branch_classes.nonzero()[0]
    flags = bytearray()
    for i in branch_at.tolist():
        branch_class = classes[i]
        if branch_class == _COND_DIRECT:
            prediction = cond.consult_row(pcs[i], next_cond())
            flags.append(
                (PREDICTED_TAKEN if prediction.taken else 0)
                | (TAGE_H2P if tage_conf_is_h2p(prediction) else 0)
                | (UCP_H2P if ucp_conf_is_h2p(prediction) else 0)
            )
            cond.train(prediction, takens[i] != 0)
        elif branch_class == _CALL_INDIRECT or branch_class == _INDIRECT:
            target = targets[i]
            ipred = indirect.consult_row(pcs[i], next_indirect())
            flags.append(INDIRECT_MISPREDICTED if ipred.target != target else 0)
            indirect.update(ipred, target)
        else:
            flags.append(0)

    return PredictionStream(narrow_column(np.append(branch_at, len(trace))), bytes(flags))


_T = TypeVar("_T")

#: Per live trace: its streams and rows by key.
_CACHE: weakref.WeakKeyDictionary[Trace, dict[object, object]] = weakref.WeakKeyDictionary()


def _cached(trace: Trace, key: object, build: Callable[[], _T]) -> tuple[_T, bool]:
    """``build()`` once per (trace, key); returns it and whether it was
    built by this call."""
    per_trace = _CACHE.get(trace)
    if per_trace is None:
        per_trace = _CACHE[trace] = {}
    value = per_trace.get(key)
    if value is None:
        built = per_trace[key] = build()
        return built, True
    return cast(_T, value), False


def get_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """Cached :func:`record_stream` (weakly keyed by the trace object)."""
    stream, built = _cached(trace, stream_key(config), lambda: record_stream(trace, config))
    from repro.observe import telemetry

    tel = telemetry.maybe()
    if tel is not None:
        tel.counter(
            "repro_kernel_stream_total",
            "Prediction-stream lookups: recorded fresh vs replayed from "
            "the per-trace cache.",
            labels=("outcome",),
        ).inc(outcome="recorded" if built else "reused")
    return stream


def get_rows(trace: Trace, cond: TageScL, indirect: ITTAGE | None) -> tuple[Rows, Rows | None]:
    """Cached :func:`consult_rows` per predictor geometry (UCP's Alt-BP
    and Alt-Ind training rows)."""
    key = ("rows", cond.config, indirect and indirect.config)
    rows, _built = _cached(trace, key, lambda: consult_rows(trace, cond, indirect))
    return rows

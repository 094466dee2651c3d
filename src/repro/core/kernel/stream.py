"""The recorded branch stream: the BPU's only predictor input.

The baseline predictor stack (TAGE-SC-L + ITTAGE on one folded global
history register) is *timing-independent*: the BPU stalls at every
misprediction (no wrong-path fetch), so it processes each branch exactly
once, in trace order, and every predictor consult/update sequence is a
pure function of (trace, predictor configs) — block boundaries, FTQ
pressure and stall cycles only change *when* a branch is processed,
never *what* the predictors see.

:func:`record_stream` runs that sequence once per (trace, predictor
config) pair with the live predictors and keeps, per branch in trace
order,

* the trace index (plus a final ``len(trace)`` sentinel), and
* a small flag word: for a conditional, the predicted direction and the
  TAGE-Conf / UCP-Conf H2P bits; for an indirect or indirect call, the
  mispredict bit.

:class:`repro.frontend.bpu.BPU` reads it with one cursor.  Everything
*not* recorded here (BTB contents, RAS, bank sets, ``taken_target``)
stays live in the BPU: those structures are cheap, and UCP reads them
mid-run.

Streams are cached per live trace object in a weak-key map (the
workload suite caches traces per (name, length), so repeated
simulations — perf repeats, experiment matrices, served jobs — record
once and replay many times).
"""

from __future__ import annotations

import weakref

from repro.branch.confidence import tage_conf_is_h2p, ucp_conf_is_h2p
from repro.branch.ittage import ITTAGE
from repro.branch.tage_sc_l import TageScL
from repro.core.configs import SimConfig
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace

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

    def __init__(self, indices: list[int], flags: list[int]) -> None:
        #: Trace index of every branch in trace order, then ``len(trace)``.
        self.indices = indices
        #: One flag word per branch (the bits above; 0 for branches no
        #: predictor consults).
        self.flags = flags


def stream_key(config: SimConfig) -> StreamKey:
    return (config.branch_predictor, config.indirect_predictor)


def record_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """One pass over the trace's branches with the live predictors.

    The call order per branch class is the decoupled frontend's —
    predictor state is path-dependent, so any reordering would change
    later predictions:

    * conditional: ``cond.predict``, ``cond.update`` (which pushes the
      history);
    * any unconditional: ``cond.push_unconditional``;
    * indirect / indirect call (additionally): ``indirect.predict``,
      ``indirect.update``.

    ITTAGE's folds share TAGE-SC-L's register, so each branch is one
    history push.  Returns and direct jumps/calls consult no predictor
    (the RAS stays live in the BPU), so only their history pushes appear
    here.
    """
    cond = TageScL(config.branch_predictor)
    indirect = ITTAGE(config.indirect_predictor, share=cond.histories)
    pcs, classes, takens, targets, _next_pcs = trace.list_columns()

    indices: list[int] = trace.branch_classes.nonzero()[0].tolist()
    flags: list[int] = []
    for i in indices:
        branch_class = classes[i]
        pc = pcs[i]
        if branch_class == _COND_DIRECT:
            taken = takens[i]
            prediction = cond.predict(pc)
            flags.append(
                (PREDICTED_TAKEN if prediction.taken else 0)
                | (TAGE_H2P if tage_conf_is_h2p(prediction) else 0)
                | (UCP_H2P if ucp_conf_is_h2p(prediction) else 0)
            )
            cond.update(prediction, taken)
            continue
        cond.push_unconditional(pc)
        if branch_class == _CALL_INDIRECT or branch_class == _INDIRECT:
            target = targets[i]
            ipred = indirect.predict(pc)
            flags.append(INDIRECT_MISPREDICTED if ipred.target != target else 0)
            indirect.update(ipred, target)
        else:
            flags.append(0)

    indices.append(len(trace))
    return PredictionStream(indices, flags)


_CACHE: weakref.WeakKeyDictionary[Trace, dict[StreamKey, PredictionStream]] = (
    weakref.WeakKeyDictionary()
)


def get_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """Cached :func:`record_stream` (weakly keyed by the trace object)."""
    per_trace = _CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _CACHE[trace] = per_trace
    key = stream_key(config)
    stream = per_trace.get(key)
    built = stream is None
    if stream is None:
        stream = per_trace[key] = record_stream(trace, config)
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

"""`repro.verify`: the simulator's correctness substrate.

Three cooperating layers make aggressive refactoring of the timing model
safe (the "sim sanitizer" of the validation plan in ``docs/VALIDATION.md``):

* :mod:`repro.verify.invariants` — cheap per-cycle runtime invariant
  checks over every live pipeline structure (µ-op cache occupancy, FTQ
  ordering, RAS depth, µ-op queue sequencing, commit conservation, …),
  enabled with ``REPRO_SIM_CHECK=1`` (or ``=N`` to check every N cycles)
  and compiled out to a single pointer test per cycle when off.
* :mod:`repro.verify.oracles` — naive *functional* golden reference
  models (LRU, set-associative cache, RAS, commit stream) that the
  invariant checker shadows the timing structures against and that the
  property/differential tests replay independently.
* :mod:`repro.verify.faults` — a mutation/fault-injection harness that
  seeds deliberate model bugs and proves each one is caught by an
  invariant or an oracle (``repro verify --inject``).

The public surface below is what the CLI, the tests and future perf PRs
use; everything else is implementation detail.  The re-exported names
resolve on first access (PEP 562), so a plain simulation, which only
asks :func:`make_checker` whether checking is on, loads neither the
invariants nor the oracles.
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.verify.invariants import SimChecker

#: Re-exported name -> the module that defines it.
_EXPORTS = {
    "INVARIANTS": "repro.verify.invariants",
    "SimChecker": "repro.verify.invariants",
    "SimCheckError": "repro.verify.invariants",
    "register_invariant": "repro.verify.invariants",
    "RefLRU": "repro.verify.oracles",
    "RefRAS": "repro.verify.oracles",
    "RefSetAssocCache": "repro.verify.oracles",
    "reference_commit_stream": "repro.verify.oracles",
}

__all__ = [*_EXPORTS, "check_level", "checks_enabled", "make_checker"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def check_level() -> int:
    """Configured check stride: 0 = off, 1 = every cycle, N = every N.

    Read from ``REPRO_SIM_CHECK`` at call time so tests and the CLI can
    flip checking on and off without re-importing anything.  Any
    unparsable value counts as "on, every cycle" — a user who set the
    variable wanted checking.
    """
    raw = os.environ.get("REPRO_SIM_CHECK", "")
    if raw in ("", "0"):
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(value, 0) or 1


def checks_enabled() -> bool:
    return check_level() > 0


def make_checker(sim, enabled: bool | None = None) -> SimChecker | None:
    """Build a :class:`SimChecker` for ``sim``, or None when checking is off.

    ``enabled`` overrides the environment: True forces a checker (stride
    from the environment, default 1), False forces none, None defers to
    ``REPRO_SIM_CHECK``.
    """
    if enabled is False:
        return None
    stride = check_level()
    if stride == 0:
        if not enabled:
            return None
        stride = 1
    from repro.verify.invariants import SimChecker

    return SimChecker(sim, stride=stride)

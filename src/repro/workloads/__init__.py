"""Synthetic workload generation — the CVP-1 trace substitute.

The paper evaluates on 306 proprietary Qualcomm datacenter traces (CVP-1
"secret" set).  Those are not redistributable, so this package builds the
closest synthetic equivalent: stochastic programs (control-flow graphs with
functions, loops, indirect dispatch) whose *static code footprint* and
*branch predictability mixture* are explicit knobs.  Walking a program
yields a control-flow-consistent dynamic :class:`~repro.isa.trace.Trace`.

The named suite in :mod:`repro.workloads.suite` spans the same qualitative
regimes as the paper's traces: µ-op cache hit rates from ~30% to ~99% and
conditional MPKI from well under 1 to ~8.
"""

from repro.workloads.behaviors import (
    Bernoulli,
    BranchBehavior,
    GlobalCorrelated,
    LoopTrip,
    Pattern,
)
from repro.workloads.cfg import BasicBlock, Function, Program, TerminatorKind
from repro.workloads.datacenter import DATACENTER_SUITE
from repro.workloads.generator import ProgramGenerator, WorkloadConfig, generate_trace
from repro.workloads.store import (
    IngestedWorkload,
    cache_token,
    ingest_trace,
    ingested_entries,
    ingested_names,
    is_ingested,
    load_ingested,
)
from repro.workloads.suite import (
    SUITE,
    WorkloadSpec,
    load_suite,
    load_workload,
    workload_names,
)

__all__ = [
    "BranchBehavior",
    "Bernoulli",
    "Pattern",
    "LoopTrip",
    "GlobalCorrelated",
    "BasicBlock",
    "Function",
    "Program",
    "TerminatorKind",
    "WorkloadConfig",
    "ProgramGenerator",
    "generate_trace",
    "SUITE",
    "DATACENTER_SUITE",
    "WorkloadSpec",
    "load_workload",
    "load_suite",
    "workload_names",
    "IngestedWorkload",
    "cache_token",
    "ingest_trace",
    "ingested_entries",
    "ingested_names",
    "is_ingested",
    "load_ingested",
]

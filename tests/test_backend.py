"""Tests for the abstract backend."""

from collections import Counter, deque

from repro.common.stats import StatBlock
from repro.core.backend import Backend
from repro.core.configs import BackendConfig
from repro.isa import BranchClass, Trace, TraceEntry


def make_trace(n=64, branch_every=0):
    entries = []
    pc = 0x1000
    for i in range(n):
        if branch_every and i % branch_every == branch_every - 1:
            entries.append(TraceEntry(pc, BranchClass.COND_DIRECT, False, 0))
        else:
            entries.append(TraceEntry(pc))
        pc += 4
    return Trace.from_entries("t", entries)


def dispatch_all(backend, indices, cycle):
    """Dispatch ``indices`` (ready at ``cycle``) in one call; returns
    their completion cycles."""
    queue = deque((index, cycle) for index in indices)
    assert backend.dispatch_ready(queue, cycle, len(queue)) == len(indices)
    return [backend.completion_of(index) for index in indices]


class TestDispatchCommit:
    def test_simple_flow(self):
        trace = make_trace(8)
        backend = Backend(BackendConfig(), trace, StatBlock())
        for completion in dispatch_all(backend, range(8), cycle=0):
            assert completion > 0
        # Eventually everything commits.
        cycle = 0
        while backend.committed < 8:
            backend.commit(cycle)
            cycle += 1
            assert cycle < 1000
        assert backend.committed == 8

    def test_commit_in_order_and_width_limited(self):
        trace = make_trace(32)
        config = BackendConfig(commit_width=4)
        backend = Backend(config, trace, StatBlock())
        dispatch_all(backend, range(32), cycle=0)
        retired = backend.commit(cycle=10_000)  # all long complete
        assert retired == 4

    def test_rob_capacity(self):
        trace = make_trace(64)
        config = BackendConfig(rob_entries=16)
        backend = Backend(config, trace, StatBlock())
        queue = deque((i, 0) for i in range(64))
        assert backend.dispatch_ready(queue, 0, 64) == 16
        assert backend.rob_full and backend.rob_occupancy == 16
        assert backend.dispatch_ready(queue, 0, 64) == 0
        assert queue[0] == (16, 0)
        backend.commit(cycle=10_000)
        assert not backend.rob_full
        assert backend.dispatch_ready(queue, 10_000, 64) == backend.committed

    def test_dispatch_stops_at_width_and_unready_head(self):
        trace = make_trace(16)
        backend = Backend(BackendConfig(), trace, StatBlock())
        queue = deque([(0, 0), (1, 0), (2, 0), (3, 5), (4, 5)])
        assert backend.dispatch_ready(queue, 0, 2) == 2
        assert backend.dispatch_ready(queue, 0, 6) == 1  # (3, 5) not ready
        assert backend.dispatch_ready(queue, 5, 6) == 2
        assert not queue and backend.dispatched == 5

    def test_completion_of_unknown_index(self):
        trace = make_trace(4)
        backend = Backend(BackendConfig(), trace, StatBlock())
        assert backend.completion_of(0) is None
        (completion,) = dispatch_all(backend, [0], cycle=5)
        assert completion > 5
        assert backend.completion_of(1) is None


class TestBranchResolution:
    def test_branch_latency_is_fixed(self):
        trace = make_trace(16, branch_every=4)
        config = BackendConfig(branch_latency=8)
        backend = Backend(config, trace, StatBlock())
        # Index 3 is a branch.
        completions = dispatch_all(backend, range(4), cycle=10)
        assert completions[3] == 10 + 1 + 8

    def test_branch_ignores_dependency_chain(self):
        trace = make_trace(16, branch_every=4)
        config = BackendConfig(branch_latency=8, long_load_latency=500)
        backend = Backend(config, trace, StatBlock())
        # Dispatch a bunch of slow work first.
        dispatch_all(backend, range(3), cycle=0)
        (completion,) = dispatch_all(backend, [3], cycle=0)
        assert completion == 0 + 1 + 8


class TestIssueWidth:
    def test_completions_rate_limited(self):
        trace = make_trace(64)
        config = BackendConfig(issue_width=2, simple_latency=1, load_hash_mod=10**9, dep_window=1)
        backend = Backend(config, trace, StatBlock())
        completions = dispatch_all(backend, range(10), cycle=0)
        # At most 2 completions may land on any single cycle.
        per_cycle = Counter(completions)
        assert max(per_cycle.values()) <= 2

"""Tests of the benchmark itself: plans, the percentile rule, the result
check and span self time.  Run from the root of a checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import plans  # noqa: E402
from harness import Outcome, check_digest, p95  # noqa: E402
from spans import Tracer  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def first(orders, n=6):
    return [next(orders) for _ in range(n)]


def test_plans_are_deterministic_per_seed():
    assert plans.serve_plan(7, RUN_SECONDS) == plans.serve_plan(7, RUN_SECONDS)
    assert plans.serve_plan(7, RUN_SECONDS) != plans.serve_plan(8, RUN_SECONDS)
    assert first(plans.loop_orders(3)) == first(plans.loop_orders(3))
    assert first(plans.loop_orders(3)) != first(plans.loop_orders(4))
    assert first(plans.fig_orders(3)) == first(plans.fig_orders(3))


def test_serve_plan_fixes_the_simulated_keys():
    width = plans.SERVE_MATRIX_WORKLOADS
    for seed in range(5):
        plan = plans.serve_plan(seed, RUN_SECONDS)
        seen: set[tuple[str, str]] = set()
        configs_per_stream = []
        new_requests = 0
        for stream in plan.streams:
            held: set[tuple[str, str]] = set()
            sent: set[tuple[frozenset[str], str]] = set()
            labels = set()
            for request in stream:
                label = plans.spec_label(request.config)
                labels.add(label)
                keys = {(workload, label) for workload in request.workloads}
                assert len(keys) == width
                matrix = (frozenset(request.workloads), label)
                if request.new:
                    new_requests += 1
                    fresh = keys - held
                    assert len(fresh) == request.new and not fresh & seen
                    # A config starts with a whole new matrix; later new
                    # requests add one key to keys the connection holds.
                    assert request.new == (1 if held & keys else width)
                    seen |= fresh
                    held |= fresh
                    sent.add(matrix)
                else:
                    # Re-issues repeat a matrix of their own connection.
                    assert matrix in sent
            configs_per_stream.append(labels)
            assert sorted(label[-1] for label in labels) == ["0", "1"]
        assert not configs_per_stream[0] & configs_per_stream[1]
        assert plan.unique_jobs == len(seen)
        assert abs(new_requests / plan.requests - plans.SERVE_MISS_SHARE) < 0.01


def test_serve_plan_supports_its_p95():
    plan = plans.serve_plan(0, RUN_SECONDS)
    assert p95([float(i) for i in range(plan.requests)])[1] >= harness.MIN_BEYOND


def test_percentile_rule_counts_the_samples_beyond():
    for n in range(1, 600):
        samples = [float(i) for i in range(n)]
        value, beyond = p95(samples)
        assert beyond == sum(1 for s in samples if s > value)
        assert (beyond >= harness.MIN_BEYOND) == (n >= 200)
    assert p95([float(i) for i in range(200)]) == (189.0, 10)

    outcome = Outcome()
    outcome.set_latencies([0.001 * i for i in range(1, 200)])
    assert outcome.metrics["latency_ms"][0] == pytest.approx(100.0)
    assert "is below the 10-beyond rule" in outcome.notes[0]


def test_digest_check_rejects_a_perturbed_result():
    import loops

    from repro.core.pipeline import simulate
    from repro.workloads import load_workload

    table = harness.load_digests()["loop"]
    trace = load_workload("fp_01", plans.LOOP_INSTRUCTIONS).trace
    result = simulate(trace, loops.loop_config(False), name="fp_01").to_dict()
    key = loops.loop_key("fp_01", False)

    outcome = Outcome()
    check_digest(outcome, table, key, result)
    assert outcome.correct

    perturbed = copy.deepcopy(result)
    perturbed["window"]["cond_mispredictions"] += 1
    check_digest(outcome, table, key, perturbed)
    check_digest(outcome, table, "fp_01|base|1", result)
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert not outcome.correct


def test_self_time_subtracts_the_children():
    tracer = Tracer()
    parent = tracer.start("parent")
    first_child = tracer.start("child", parent)
    second_child = tracer.start("child", parent)
    tracer.end(second_child)
    tracer.end(first_child)
    tracer.end(parent)
    spans = {span["id"]: span for span in tracer.spans}
    # Pin the intervals: children 10-30 and 20-50 overlap inside 0-100.
    for span_id, (start, end) in {parent: (0, 100), first_child: (10, 30), second_child: (20, 50)}.items():
        spans[span_id]["start_ns"], spans[span_id]["end_ns"] = start * 10**6, end * 10**6
    self_ms = tracer.self_ms()
    assert self_ms["parent"] == 60.0
    assert self_ms["child"] == 50.0
    assert {span["trace"] for span in tracer.spans} == {parent}


def test_served_reply_check_rejects_a_perturbed_summary():
    import servemix

    from repro.analysis.parallel import SimJob
    from repro.core.configs import config_from_spec
    from repro.core.pipeline import simulate
    from repro.serve.client import RunReply
    from repro.serve.protocol import result_summary
    from repro.workloads import load_workload

    table = harness.load_digests()["serve"]
    spec = plans.serve_config(8, False)
    job = SimJob("fp_01", config_from_spec(spec), plans.SERVE_INSTRUCTIONS)
    result = simulate(load_workload("fp_01", job.n_instructions).trace, job.config, name="fp_01")
    summary = result_summary(job, result, cached=True)
    request = plans.Request(("fp_01",), spec, new=0)

    assert servemix.reply_problem(table, request, RunReply("r1", results=[summary])) is None
    perturbed = dict(summary, cycles=summary["cycles"] + 1)
    assert "mismatch" in servemix.reply_problem(table, request, RunReply("r1", results=[perturbed]))
    assert servemix.reply_problem(table, request, RunReply("r1")) is not None

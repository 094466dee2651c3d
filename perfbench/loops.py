"""``loop_base`` / ``loop_ucp``: warm in-process ``simulate()`` loops.

Set-up builds each trace, its recorded prediction stream and its kernel
columns; the timed window then simulates whole rounds (every trace once,
in a seeded order) until ``--seconds`` have passed.  ``loop_base`` runs
the replay BPU, fetch, backend and caches without the alternate-path
walker; ``loop_ucp`` adds the walker.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from statistics import geometric_mean, median
from time import perf_counter

from harness import Outcome, check_digest, peak_rss_mb
from plans import LOOP_INSTRUCTIONS, LOOP_TRACES, loop_orders
from spans import Tracer

from repro.core.configs import SimConfig, UCPConfig
from repro.core.kernel import get_columns, get_stream
from repro.core.pipeline import simulate
from repro.isa.trace import Trace
from repro.workloads import SUITE, generate_trace

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def collect_garbage() -> float:
    """Free the last simulator's cyclic garbage now, so peak RSS is set-up
    plus one simulation rather than the collector's schedule; returns the
    seconds taken, which the timed window leaves out."""
    start = perf_counter()
    gc.collect()
    return perf_counter() - start


def loop_config(ucp: bool) -> SimConfig:
    return replace(SimConfig(), ucp=UCPConfig(enabled=True)) if ucp else SimConfig()


def loop_key(name: str, ucp: bool) -> str:
    return f"{name}|{'ucp' if ucp else 'base'}|{LOOP_INSTRUCTIONS}"


def build_traces(config: SimConfig, tracer: Tracer) -> dict[str, Trace]:
    """Cold set-up: generate every trace, record its stream, build columns."""
    traces: dict[str, Trace] = {}
    for name in LOOP_TRACES:
        with tracer.span("workloads.generate", trace=name):
            trace = generate_trace(replace(SUITE[name], n_instructions=LOOP_INSTRUCTIONS))
        with tracer.span("kernel.record", trace=name):
            get_stream(trace, config)
        with tracer.span("kernel.columns", trace=name):
            get_columns(trace, config)
        traces[name] = trace
    return traces


def run(ucp: bool, seed: int, seconds: float, tracer: Tracer, digests: dict) -> Outcome:
    config = loop_config(ucp)
    table = digests["loop"]
    outcome = Outcome()

    setups = []
    traces: dict[str, Trace] = {}
    for _ in range(SETUP_REPEATS):
        traces = {}  # drop the previous set so its cached streams go too
        gc.collect()
        start = perf_counter()
        with tracer.span("setup"):
            traces = build_traces(config, tracer)
        setups.append(perf_counter() - start)

    # Keep the collector off the set-up's objects: a collection during an
    # operation then scans only that operation's own objects.
    gc.collect()
    gc.freeze()
    latencies: dict[str, list[float]] = {name: [] for name in LOOP_TRACES}
    rounds = 0
    orders = loop_orders(seed)
    start = perf_counter()
    paused = 0.0
    while perf_counter() - start - paused < seconds:
        with tracer.span("loop.round", round=rounds):
            for name in next(orders):
                op_start = perf_counter()
                with tracer.span("pipeline.simulate", trace=name):
                    result = simulate(traces[name], config, name=name)
                latencies[name].append(perf_counter() - op_start)
                check_digest(outcome, table, loop_key(name, ucp), result.to_dict())
                del result
                paused += collect_garbage()
        rounds += 1
    elapsed = perf_counter() - start - paused
    gc.unfreeze()

    instructions = rounds * len(LOOP_TRACES) * LOOP_INSTRUCTIONS
    outcome.set("sim_kips", instructions / elapsed / 1000.0, "kips")
    outcome.set_latencies([value for values in latencies.values() for value in values])
    # A pooled median would jump between traces as the round count changes.
    outcome.set(
        "latency_ms",
        1000.0 * geometric_mean([median(values) for values in latencies.values()]),
        "ms",
    )
    outcome.set("setup_s", median(setups), "s")
    outcome.set("peak_rss_mb", peak_rss_mb(), "MB")
    return outcome

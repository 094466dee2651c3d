"""Seeded inputs of every workload.

The seed is the only source of variation: the same (seed, seconds) gives
the same plan.  Plans name workloads and config specs only; the program
sees nothing but the requests built from them.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

#: Traces of the loop workloads: µ-op-cache footprints from tiny (fp_01)
#: to large (srv_05), plus an indirect-heavy interpreter (dc_interp_01).
LOOP_TRACES = ("fp_01", "int_02", "srv_05", "dc_interp_01")
LOOP_INSTRUCTIONS = 40_000

#: The figure of ``fig_cold`` and its run length: three engine batches
#: (no µ-op cache, baseline, UCP) over the loop traces.
FIG_NAME = "fig10"
FIG_WORKLOADS = LOOP_TRACES
FIG_INSTRUCTIONS = 4_000

#: ``serve_mix``: the suite workloads a matrix draws from, the config
#: sweep, the run length of one served job and the request shape.
SERVE_WORKLOADS = (
    "srv_01", "srv_02", "srv_03", "srv_04", "srv_05", "srv_06", "srv_07",
    "int_01", "int_02", "int_03", "int_04",
    "crypto_01", "crypto_02", "crypto_03",
    "fp_01", "fp_02", "web_01", "web_02", "db_01", "db_02",
    "mix_01", "mix_02", "dc_call_01", "dc_call_02",
    "dc_interp_01", "dc_interp_02", "dc_mega_01", "dc_mega_02",
)  # fmt: skip
SERVE_UOP_KOPS = (4, 8, 16, 32, 64)
SERVE_INSTRUCTIONS = 6_500
SERVE_MATRIX_WORKLOADS = 4
SERVE_CONNECTIONS = 2
#: Share of requests that carry a key never seen before.
SERVE_MISS_SHARE = 0.15
#: New requests planned per second of ``--seconds`` (sized on a 2-core host).
SERVE_NEW_PER_SECOND = 5


def shuffles(label: str, seed: int, names: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """An endless seeded sequence of orderings of ``names``."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield tuple(rng.sample(names, len(names)))


def loop_orders(seed: int) -> Iterator[tuple[str, ...]]:
    """The trace order of each loop round."""
    return shuffles("loop", seed, LOOP_TRACES)


def fig_orders(seed: int) -> Iterator[tuple[str, ...]]:
    """The ``--workloads`` order of each figure run."""
    return shuffles("fig", seed, FIG_WORKLOADS)


def serve_config(uop_kops: int, ucp: bool) -> dict[str, object]:
    spec: dict[str, object] = {"uop_kops": uop_kops}
    if ucp:
        spec["ucp"] = True
    return spec


def spec_label(spec: dict[str, object]) -> str:
    return f"uop_kops={spec['uop_kops']},ucp={int(bool(spec.get('ucp', False)))}"


def serve_key(workload: str, spec: dict[str, object], n_instructions: int) -> str:
    """Digest-table key of one served job."""
    return f"{workload}|{spec_label(spec)}|{n_instructions}"


def serve_universe() -> list[tuple[str, dict[str, object]]]:
    """Every (workload, config spec) a ``serve_mix`` plan can name."""
    return [
        (workload, serve_config(kops, ucp))
        for kops in SERVE_UOP_KOPS
        for ucp in (False, True)
        for workload in SERVE_WORKLOADS
    ]


@dataclass(frozen=True)
class Request:
    workloads: tuple[str, ...]
    config: dict[str, object]
    #: How many of the request's jobs name a key no earlier request named.
    new: int


@dataclass(frozen=True)
class ServePlan:
    #: One closed-loop request stream per connection.
    streams: tuple[tuple[Request, ...], ...]

    @property
    def requests(self) -> int:
        return sum(len(stream) for stream in self.streams)

    @property
    def unique_jobs(self) -> int:
        """Simulations the plan causes: one per new key."""
        return sum(request.new for stream in self.streams for request in stream)


def serve_plan(seed: int, seconds: int) -> ServePlan:
    """The seeded request mix of one ``serve_mix`` run.

    Each connection works in two configs of the sweep, one base and one
    UCP, and no config is shared between connections.  The first request
    in a config is a matrix of :data:`SERVE_MATRIX_WORKLOADS` new keys;
    every later new request carries exactly one new key plus keys its own
    connection already holds, so apart from the four-key starts a hit
    shares the host with at most one busy worker.  All remaining requests
    re-issue a matrix their own connection sent before, so they are served
    from the result cache and never wait on another connection's flight:
    the hit/miss split of every run is exact.  New requests alternate
    between the base and the UCP config, so the simulated work depends on
    the seed only through which workloads and cache sizes it draws.
    """
    rng = random.Random(f"serve:{seed}")
    new_per_stream = SERVE_NEW_PER_SECOND * seconds // SERVE_CONNECTIONS
    width = SERVE_MATRIX_WORKLOADS
    capacity = 2 * (len(SERVE_WORKLOADS) - width + 1)
    if not 2 <= new_per_stream <= capacity:
        raise ValueError(f"--seconds {seconds} is outside what the sweep supports")
    per_stream = round(new_per_stream / SERVE_MISS_SHARE)
    base_kops = rng.sample(SERVE_UOP_KOPS, SERVE_CONNECTIONS)
    ucp_kops = rng.sample(SERVE_UOP_KOPS, SERVE_CONNECTIONS)

    streams = []
    for index in range(SERVE_CONNECTIONS):
        configs = [serve_config(base_kops[index], False), serve_config(ucp_kops[index], True)]
        unused = [rng.sample(SERVE_WORKLOADS, len(SERVE_WORKLOADS)) for _ in configs]
        held: list[list[str]] = [[] for _ in configs]
        # New requests alternate between the two configs, from slot 0.
        slots = set([0] + rng.sample(range(1, per_stream), new_per_stream - 1))
        sent: list[tuple[tuple[str, ...], dict[str, object]]] = []
        stream: list[Request] = []
        turn = 0
        for position in range(per_stream):
            if position in slots:
                which = turn % 2
                turn += 1
                take = 1 if held[which] else width
                fresh = [unused[which].pop() for _ in range(take)]
                names = tuple(fresh + rng.sample(held[which], width - take))
                held[which].extend(fresh)
                sent.append((names, configs[which]))
                stream.append(Request(names, configs[which], new=take))
            else:
                names, spec = rng.choice(sent)
                stream.append(Request(tuple(rng.sample(names, width)), spec, new=0))
        streams.append(tuple(stream))
    return ServePlan(tuple(streams))

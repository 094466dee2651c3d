"""``serve_mix``: a served matrix mix over the experiment server.

An in-process :class:`ExperimentServer` with its default process shards
serves two client connections, each a closed loop over its own seeded
request stream (see :func:`plans.serve_plan`).  Each run starts with an
empty result cache, so the plan fixes exactly which keys are simulated.
Set-up is a cold start of ``repro serve`` in a fresh interpreter, until
it reports serving: import plus the same ``ExperimentServer.start`` the
in-process server runs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from time import perf_counter

from harness import Outcome, child_env, digest, peak_rss_mb
from plans import SERVE_INSTRUCTIONS, Request, ServePlan, serve_key, serve_plan
from spans import Tracer

from repro.analysis.runner import clear_memory_cache
from repro.serve.client import RunReply, ServeClient, ServeRequestError
from repro.serve.server import ExperimentServer

#: Cold server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
#: Budget of the whole timed window before the run is abandoned.
PASS_TIMEOUT_S = 150.0


def quiet(_line: str) -> None:
    pass


def reap_children(timeout: float = 10.0) -> None:
    """Wait until every worker process the server started has ended.

    The scheduler terminates its shard pools without joining them; joining
    here keeps no process alive past the run and lets their peak RSS show
    up in this process's children's rusage.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=5.0)


#: The simulated statistics of a served result summary.  Left out: the
#: ``cached`` flag and source (they depend on timing), the cache key (it
#: embeds the cache version) and the reply's own framing.
SUMMARY_FIELDS = (
    "workload", "n_instructions", "instructions", "cycles", "ipc",
    "uop_hit_rate", "cond_mpki", "switch_pki", "prefetch_accuracy",
)  # fmt: skip


def summary_payload(result: dict) -> dict:
    return {name: result.get(name) for name in SUMMARY_FIELDS}


def reply_problem(table: dict, request: Request, reply: RunReply | None) -> str | None:
    """Why a request's reply is wrong, or None when every job's statistics
    match the committed digests."""
    if reply is None or not reply.ok or len(reply.results) != len(request.workloads):
        return f"request {request.workloads} failed or came back short"
    for workload in request.workloads:
        result = reply.result_for(workload)
        key = serve_key(workload, request.config, SERVE_INSTRUCTIONS)
        if result is None:
            return f"{key}: missing from the reply"
        if digest(summary_payload(result)) != table.get(key):
            return f"{key}: result digest mismatch"
    return None


def check_reply(outcome: Outcome, table: dict, request: Request, reply: RunReply | None) -> None:
    """Count one request; it fails if any of its jobs does."""
    problem = reply_problem(table, request, reply)
    outcome.record(problem is None, problem or "")


def cold_start(src: Path, work: Path) -> float:
    """Seconds from launching ``repro serve`` until it reports serving."""
    env = child_env(src, work / "setup-cache")
    env["PYTHONUNBUFFERED"] = "1"
    start = perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        cwd=work,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    watchdog = threading.Timer(SETUP_TIMEOUT_S, server.kill)
    watchdog.start()
    try:
        assert server.stdout is not None
        for line in server.stdout:
            if line.startswith("serving on"):
                return perf_counter() - start
        raise RuntimeError("repro serve exited before it was serving")
    finally:
        watchdog.cancel()
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


async def serve_pass(
    plan: ServePlan, tracer: Tracer, table: dict, outcome: Outcome
) -> tuple[list[float], float, dict]:
    """Run the whole plan against a fresh server: (latencies, seconds,
    scheduler stats)."""
    server = ExperimentServer(log=quiet)
    await server.start()
    latencies: list[float] = []
    root = tracer.start("serve_mix")

    async def connection(stream: tuple[Request, ...]) -> None:
        async with ServeClient(port=server.port) as client:
            for request in stream:
                span = tracer.start("serve.request", root, new=request.new)
                start = perf_counter()
                try:
                    reply = await client.run(
                        list(request.workloads),
                        configs=[request.config],
                        n_instructions=SERVE_INSTRUCTIONS,
                    )
                except ServeRequestError:
                    reply = None
                latencies.append(perf_counter() - start)
                tracer.end(span)
                check_reply(outcome, table, request, reply)

    try:
        start = perf_counter()
        await asyncio.wait_for(
            asyncio.gather(*(connection(stream) for stream in plan.streams)),
            PASS_TIMEOUT_S,
        )
        elapsed = perf_counter() - start
        stats = server.scheduler.stats()
    finally:
        tracer.end(root)
        await server.close()
        reap_children()
    return latencies, elapsed, stats


def fresh_cache(work: Path) -> None:
    """Point the result cache at an empty directory and drop memory hits."""
    cache_dir = work / "serve-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_SIM_CACHE_DIR"] = str(cache_dir)
    clear_memory_cache()


def check_accounting(outcome: Outcome, plan: ServePlan, stats: dict) -> None:
    """The plan fixes the simulated work exactly; a run that simulated
    more or less, or restarted a worker, is wrong whatever it replied."""
    simulated = stats["counters"].get("jobs_simulated", 0)
    if simulated != plan.unique_jobs:
        outcome.fail(f"jobs_simulated {simulated} != planned {plan.unique_jobs}")
    if stats["restarts"]:
        outcome.fail(f"{stats['restarts']} worker restarts")


def run(src: Path, work: Path, seed: int, seconds: float, tracer: Tracer, digests: dict) -> Outcome:
    table = digests["serve"]
    outcome = Outcome()
    plan = serve_plan(seed, int(seconds))

    with tracer.span("setup"):
        setups = [cold_start(src, work) for _ in range(SETUP_REPEATS)]
    fresh_cache(work)
    latencies, elapsed, stats = asyncio.run(serve_pass(plan, tracer, table, outcome))
    check_accounting(outcome, plan, stats)

    outcome.set("sim_kips", plan.unique_jobs * SERVE_INSTRUCTIONS / elapsed / 1000.0, "kips")
    outcome.set_latencies(latencies)
    outcome.set("setup_s", median(setups), "s")
    outcome.set("peak_rss_mb", max(peak_rss_mb(), peak_rss_mb(children=True)), "MB")
    return outcome

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``workloads``
    List the built-in workload suite with footprint statistics.
``simulate WORKLOAD``
    Run one simulation and print a result report.  Flags select the
    configuration: ``--ucp`` (and its variants), ``--no-uop-cache``,
    ``--ideal-uop-cache``, ``--prefetcher``, ``--mrc``.
``profile WORKLOAD``
    Simulate once with component-level wall-time profiling
    (:mod:`repro.analysis.profile`): per-component seconds summing to
    the run's wall time, simulation throughput, idle-skip telemetry.
    Accepts the same configuration flags as ``simulate``, plus
    ``--json FILE`` to dump the report and ``--no-skip`` to profile
    with idle-cycle skipping disabled.
``trace WORKLOAD``
    Simulate once with the :mod:`repro.observe` event bus on and write
    the pipeline trace to disk — ``--format perfetto`` (default; open in
    https://ui.perfetto.dev) or ``--format jsonl``.  Prints the
    stall-cycle taxonomy afterwards.  Bare output filenames land in
    ``$REPRO_BENCH_OUT`` when it is set.
``metrics WORKLOAD``
    Simulate once with interval metrics sampling (``--interval N``
    cycles) and print the IPC / hit-rate / MPKI time-series plus the
    stall-cycle taxonomy; ``--json FILE`` dumps both.
``experiment NAME``
    Run one paper experiment (``fig02`` … ``fig16``, ``taba``) and print
    its table; ``--full`` uses the whole suite, ``--jobs N`` sets the
    parallel engine's worker count, ``--stats`` prints engine throughput.
``verify``
    Run the differential-oracle and invariant-sanitizer suite
    (:mod:`repro.verify`): clean-model sweep against the commit-stream
    oracle, or ``--inject FAULT`` to prove a deliberate bug is caught
    (``--inject all`` for the whole registry, ``--list-faults`` to see it).
``cache stats|clear|verify|prune|snapshot``
    Inspect, wipe, integrity-check, LRU-evict, or snapshot-index the
    simulation result cache (``.simcache/`` or ``REPRO_SIM_CACHE_DIR``).
    ``stats`` also reports process-lifetime hit/miss/eviction rates when
    ``REPRO_SIM_TELEMETRY`` is on, and takes ``--json``; ``verify``
    exits non-zero whenever corrupt entries are found; ``prune``
    enforces ``--max-bytes``/``--max-entries`` bounds.
``serve``
    Run the asyncio experiment server (:mod:`repro.serve`): NDJSON
    requests over a local TCP socket, single-flight deduplication across
    clients, sharded worker pools, streamed progress events.
    ``--metrics-port N`` additionally serves the telemetry registry as
    Prometheus text on ``http://HOST:N/metrics`` (and JSON on
    ``/metrics.json``) when ``REPRO_SIM_TELEMETRY=1``.
``top``
    Live terminal dashboard over a running server's ``status`` verb:
    scheduler counters, queue/shard health, cache state, and the
    telemetry metric families (``--once`` prints a single frame,
    ``--json`` dumps the raw status).
``ingest inspect|convert|characterize``
    The real-trace frontend (:mod:`repro.isa.ingest`).  ``inspect FILE``
    detects the container format (ChampSim / CVP-1 / RISC-V / text /
    npz, optionally gz/xz-wrapped), reads it, and prints the
    normalization report plus footprint statistics without writing
    anything.  ``convert FILE --name NAME`` normalises the trace and
    registers it in the trace store (``.simtraces/`` or
    ``REPRO_TRACE_DIR``), after which NAME works everywhere a suite
    workload does — ``simulate``, ``metrics``, experiments, the server —
    with result-cache keys tied to the trace's content digest.
    ``characterize [WORKLOAD...]`` prints the Section III-A table
    (footprint, branch mix, baseline IPC/hit-rate/MPKI) for suite and
    ingested workloads; ``--json FILE`` dumps the rows.
``export WORKLOAD FILE``
    Materialise a workload trace to ``.npz`` (binary), ``.txt`` (text),
    ``.champsim``/``.bin`` (ChampSim), ``.cvp`` (CVP-1) or ``.rv``
    (RISC-V stream); ``.gz``/``.xz`` wrapping inferred from the name.
``lint [PATHS...]``
    Run the simulator-aware static-analysis pass (:mod:`repro.lint`)
    over ``src/`` (or the given paths): determinism, hook-gating, and
    cache-contract rules SIM001–SIM007.  ``--json`` emits the
    machine-readable report, ``--explain SIMxxx`` prints a rule's
    rationale with bad/good examples, ``--list-rules`` shows the
    catalogue, and ``--write-schema`` refreshes the cache-schema
    snapshot after a reviewed payload change.  Exit codes: 0 clean,
    1 findings, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import SimConfig
from repro.core.configs import config_from_spec
from repro.workloads import SUITE, load_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Alternate Path u-op Cache Prefetching (ISCA 2024) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list the built-in workload suite")

    sim = commands.add_parser("simulate", help="simulate one workload")
    _add_config_flags(sim)
    sim.add_argument(
        "--check",
        action="store_true",
        help="run with per-cycle invariant checks (as REPRO_SIM_CHECK=1)",
    )
    sim.add_argument(
        "--trace",
        action="store_true",
        help="run with the observe event bus on (as REPRO_SIM_TRACE=1) "
        "and print the stall-cycle taxonomy after the report",
    )

    trace = commands.add_parser(
        "trace", help="simulate once and write a pipeline event trace"
    )
    _add_config_flags(trace)
    trace.add_argument(
        "--format",
        choices=["perfetto", "jsonl"],
        default="perfetto",
        help="trace file format (default: perfetto, for ui.perfetto.dev)",
    )
    trace.add_argument(
        "--output",
        metavar="FILE",
        help="output path (default: <workload>.trace.json / .jsonl; bare "
        "names land in $REPRO_BENCH_OUT when set)",
    )
    trace.add_argument(
        "--interval",
        type=int,
        metavar="N",
        help="interval-metrics window in cycles (0 disables counter tracks)",
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help="also arm the sim sanitizer (enforces the taxonomy partition)",
    )

    metrics = commands.add_parser(
        "metrics", help="simulate once and print interval metrics + taxonomy"
    )
    _add_config_flags(metrics)
    metrics.add_argument(
        "--interval",
        type=int,
        metavar="N",
        help="sampling window in cycles (default: REPRO_SIM_INTERVAL or 1024)",
    )
    metrics.add_argument(
        "--json", metavar="FILE", help="also write samples + taxonomy as JSON"
    )

    profile = commands.add_parser(
        "profile", help="simulate once with component-level wall-time profiling"
    )
    _add_config_flags(profile)
    profile.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON to FILE"
    )
    profile.add_argument(
        "--no-skip",
        action="store_true",
        help="profile with idle-cycle skipping disabled",
    )

    verify = commands.add_parser(
        "verify", help="run the differential oracle / sim-sanitizer suite"
    )
    verify.add_argument(
        "--inject",
        metavar="FAULT",
        help="inject a deliberate bug and prove the sanitizer catches it "
        "('all' runs the whole fault registry)",
    )
    verify.add_argument(
        "--list-faults", action="store_true", help="list injectable faults"
    )
    verify.add_argument(
        "--instructions",
        type=int,
        default=4_000,
        help="trace length for the clean-model sweep",
    )

    experiment = commands.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument("name")
    experiment.add_argument("--full", action="store_true")
    experiment.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="parallel simulation workers (default: REPRO_SIM_JOBS or CPU count)",
    )
    experiment.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="run on a custom workload set (suite or ingested names) "
        "instead of the quick/full scale",
    )
    experiment.add_argument(
        "--instructions",
        type=int,
        metavar="N",
        help="trace length for a custom scale (default: the scale's own)",
    )

    cache = commands.add_parser("cache", help="manage the simulation result cache")
    cache_actions = cache.add_subparsers(dest="cache_action", required=True)
    cache_stats_cmd = cache_actions.add_parser(
        "stats", help="show cache size, location, and lifetime hit rates"
    )
    cache_stats_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as JSON (includes the telemetry section)",
    )
    cache_actions.add_parser("clear", help="delete all cached results")
    cache_verify = cache_actions.add_parser(
        "verify", help="integrity-check every cached entry"
    )
    cache_verify.add_argument(
        "--fix", action="store_true", help="delete corrupt entries"
    )
    cache_prune = cache_actions.add_parser(
        "prune", help="evict LRU entries until the cache fits a bound"
    )
    cache_prune.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="byte bound (default: REPRO_SIM_CACHE_MAX_BYTES)",
    )
    cache_prune.add_argument(
        "--max-entries",
        type=int,
        metavar="N",
        help="entry bound (default: REPRO_SIM_CACHE_MAX_ENTRIES)",
    )
    cache_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    cache_actions.add_parser(
        "snapshot", help="write the warm-start index snapshot"
    )

    serve = commands.add_parser(
        "serve", help="run the asyncio experiment server (NDJSON over TCP)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="worker shards (default: REPRO_SERVE_SHARDS or a core heuristic)",
    )
    serve.add_argument(
        "--mode",
        choices=["process", "thread"],
        default="process",
        help="worker isolation (thread mode is for tests: fast, uncontained)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        help="per-job timeout (default: REPRO_SIM_JOB_TIMEOUT or none)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        metavar="N",
        help="refuse new requests past this queue depth "
        "(default: REPRO_SERVE_MAX_PENDING or 1024)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        metavar="N",
        help="also expose the telemetry registry over HTTP on this port "
        "(/metrics Prometheus text, /metrics.json; 0 picks a free port)",
    )

    top = commands.add_parser(
        "top", help="live dashboard over a running experiment server"
    )
    top.add_argument(
        "--host", default="127.0.0.1", help="server address (default: 127.0.0.1)"
    )
    top.add_argument("--port", type=int, required=True, help="server port")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default: 2.0)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="dump the raw status message instead of rendering",
    )

    export = commands.add_parser("export", help="export a workload trace")
    export.add_argument("workload", metavar="WORKLOAD")
    export.add_argument("path")
    export.add_argument("--instructions", type=int, default=20_000)

    ingest = commands.add_parser(
        "ingest", help="inspect, convert, or characterize real traces"
    )
    ingest_actions = ingest.add_subparsers(dest="ingest_action", required=True)

    inspect = ingest_actions.add_parser(
        "inspect", help="detect and read a trace file, print its shape"
    )
    inspect.add_argument("file")
    inspect.add_argument(
        "--format",
        choices=["champsim", "cvp", "riscv", "text", "npz"],
        help="container format (default: infer from the file name)",
    )
    inspect.add_argument(
        "--instructions",
        type=int,
        metavar="N",
        help="read at most N instructions",
    )

    convert = ingest_actions.add_parser(
        "convert", help="normalise a trace file and register it as a workload"
    )
    convert.add_argument("file")
    convert.add_argument(
        "--name",
        required=True,
        help="workload name to register (letters, digits, '_', '-')",
    )
    convert.add_argument(
        "--format",
        choices=["champsim", "cvp", "riscv", "text", "npz"],
        help="container format (default: infer from the file name)",
    )
    convert.add_argument(
        "--instructions",
        type=int,
        metavar="N",
        help="ingest at most N instructions",
    )

    characterize = ingest_actions.add_parser(
        "characterize",
        help="print footprint / branch-mix / baseline-MPKI rows",
    )
    characterize.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="workload names, suite or ingested (default: every ingested "
        "trace, or the quick scale when none are registered)",
    )
    characterize.add_argument("--instructions", type=int, default=20_000)
    characterize.add_argument(
        "--no-simulate",
        action="store_true",
        help="skip the baseline simulation columns (trace-only statistics)",
    )
    characterize.add_argument(
        "--json", metavar="FILE", help="also write the rows as JSON"
    )

    lint = commands.add_parser(
        "lint", help="run the simulator-aware static-analysis pass"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the machine-readable JSON report"
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's rationale and examples (e.g. SIM004) and exit",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list the rule catalogue and exit"
    )
    lint.add_argument(
        "--write-schema",
        action="store_true",
        help="refresh the committed cache-schema snapshot from the sources",
    )
    lint.add_argument(
        "--callgraph-out",
        metavar="FILE",
        help="write the interprocedural call-graph/effects artifact (JSON)",
    )
    return parser


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """Workload + configuration flags shared by ``simulate`` and ``profile``."""
    # No argparse choices: names resolve against the suite *and* the
    # ingested-trace store at run time (see repro.workloads.suite).
    sub.add_argument("workload", metavar="WORKLOAD")
    sub.add_argument("--instructions", type=int, default=20_000)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--no-uop-cache", action="store_true")
    group.add_argument("--ideal-uop-cache", action="store_true")
    sub.add_argument("--ucp", action="store_true", help="enable UCP")
    sub.add_argument(
        "--ucp-variant",
        choices=["noind", "till-l1i", "shared-decoders", "ideal-btb", "tage-conf"],
        help="UCP flavour (implies --ucp)",
    )
    sub.add_argument("--stop-threshold", type=int, default=500)
    sub.add_argument(
        "--prefetcher",
        choices=["next_line", "fnl_mma", "fnl_mma++", "djolt", "ep", "ep++"],
    )
    sub.add_argument("--mrc", type=int, metavar="ENTRIES")
    sub.add_argument("--uop-kops", type=int, choices=[4, 8, 16, 32, 64])


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    """Build the :class:`SimConfig` selected by the shared flags.

    Routed through :func:`repro.core.configs.config_from_spec` — the same
    normalizer the experiment server uses — so a CLI invocation and a
    served request spelling the same options share one cache key.
    """
    spec: dict[str, object] = {
        "no_uop_cache": bool(args.no_uop_cache),
        "ideal_uop_cache": bool(args.ideal_uop_cache),
        "ucp": bool(args.ucp),
        "stop_threshold": args.stop_threshold,
    }
    if args.uop_kops:
        spec["uop_kops"] = args.uop_kops
    if args.prefetcher:
        spec["prefetcher"] = args.prefetcher
    if args.mrc:
        spec["mrc"] = args.mrc
    if args.ucp_variant:
        spec["ucp_variant"] = args.ucp_variant
    return config_from_spec(spec)


def _simulate(args: argparse.Namespace) -> int:
    from repro.core.pipeline import Simulator

    config = _config_from_args(args)
    trace = load_workload(args.workload, args.instructions).trace
    sim = Simulator(
        trace,
        config,
        check=True if args.check else None,
        observe=True if args.trace else None,
    )
    result = sim.run()
    print(f"workload            {args.workload} ({args.instructions} instructions)")
    print(f"IPC                 {result.ipc:.4f}")
    print(f"cycles              {result.cycles}")
    print(f"u-op cache hit rate {result.uop_hit_rate:.1f}%")
    print(f"mode switches PKI   {result.switch_pki:.2f}")
    print(f"conditional MPKI    {result.cond_mpki:.2f}")
    if config.ucp.enabled:
        window = result.window
        print(f"UCP walks           {window.get('ucp_walks_started', 0)}")
        print(f"UCP entries         {window.get('ucp_entries_prefetched', 0)}")
        print(f"prefetch accuracy   {result.prefetch_accuracy:.1f}%")
    if sim.observer is not None:
        print()
        print(sim.observer.taxonomy.render())
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.common.output import resolve_output_path
    from repro.core.pipeline import Simulator
    from repro.observe import JsonlSink, PerfettoSink

    config = _config_from_args(args)
    trace = load_workload(args.workload, args.instructions).trace
    sim = Simulator(
        trace,
        config,
        check=True if args.check else None,
        observe=True,
        interval=args.interval,
    )
    result = sim.run()
    observer = sim.observer

    suffix = ".trace.json" if args.format == "perfetto" else ".jsonl"
    path = resolve_output_path(args.output or f"{args.workload}{suffix}")
    if args.format == "perfetto":
        written = PerfettoSink(path).write(observer, intervals=result.intervals)
        print(f"wrote {written} trace events to {path} (open in ui.perfetto.dev)")
    else:
        written = JsonlSink(path).write(observer, result=result)
        print(f"wrote {written} trace events to {path}")
    print()
    print(observer.taxonomy.render())
    return 0


def _metrics(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.common.output import resolve_output_path
    from repro.core.pipeline import Simulator
    from repro.observe.metrics import DEFAULT_INTERVAL

    config = _config_from_args(args)
    trace = load_workload(args.workload, args.instructions).trace
    sim = Simulator(trace, config, observe=True, interval=args.interval)
    result = sim.run()

    samples = result.intervals
    window = args.interval if args.interval else DEFAULT_INTERVAL
    rows = [
        (
            sample["cycle"],
            sample["instructions"],
            f"{sample['ipc']:.3f}",
            f"{sample['uop_hit_rate']:.1f}%",
            f"{sample['cond_mpki']:.2f}",
            f"{sample['ucp_accuracy']:.1f}%",
        )
        for sample in samples
    ]
    print(
        format_table(
            f"{args.workload}: interval metrics (every {window} cycles)",
            ["cycle", "insts", "IPC", "uop hit", "MPKI", "UCP acc"],
            rows,
        )
    )
    print()
    print(sim.observer.taxonomy.render())
    if args.json:
        import json

        path = resolve_output_path(args.json)
        from repro.analysis.characterize import trace_profile

        payload = {
            "workload": args.workload,
            "instructions": args.instructions,
            "intervals": samples,
            "taxonomy": sim.observer.taxonomy.as_dict(),
            "characterization": trace_profile(trace),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {path}")
    return 0


def _profile(args: argparse.Namespace) -> int:
    from repro.analysis.profile import profile_run

    config = _config_from_args(args)
    trace = load_workload(args.workload, args.instructions).trace
    report = profile_run(  # lint-ok: SIM002 invoking the profiler is this command's purpose
        trace, config, idle_skip=False if args.no_skip else None
    )
    print(report.render())
    if args.json:
        from repro.common.output import resolve_output_path

        path = resolve_output_path(args.json)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"\nwrote {path}")
    return 0


def _workloads() -> int:
    from repro.analysis.tables import format_table

    rows = []
    for name in SUITE:
        spec = load_workload(name, 10_000)
        stats = spec.trace.stats()
        rows.append(
            (
                name,
                f"{stats.static_code_bytes / 1024:.0f}KB",
                stats.conditional_branches,
                f"{stats.conditional_taken_rate:.2f}",
            )
        )
    print(
        format_table(
            "Workload suite (10K-instruction sample)",
            ["name", "touched code", "cond branches", "taken rate"],
            rows,
        )
    )
    return 0


def _experiment(args: argparse.Namespace) -> int:
    from repro.experiments import FULL, QUICK
    from repro.experiments.common import Scale
    from repro.experiments.registry import run_experiment

    scale = FULL if args.full else QUICK
    if args.workloads or args.instructions:
        scale = Scale(
            "custom",
            tuple(args.workloads) if args.workloads else scale.workloads,
            args.instructions if args.instructions else scale.n_instructions,
        )
    try:
        _, rendered = run_experiment(args.name, scale, jobs=args.jobs)
    except KeyError as error:
        print(error.args[0])
        return 2
    print(rendered)
    return 0


def _verify(args: argparse.Namespace) -> int:
    from repro.verify.differential import run_verification
    from repro.verify.faults import FAULTS, run_all_faults, run_fault
    from repro.verify.invariants import SimCheckError
    from repro.verify.service_faults import (
        SERVICE_FAULTS,
        run_all_service_faults,
        run_service_fault,
    )

    if args.list_faults:
        for fault in FAULTS.values():
            print(f"{fault.name:20s} {fault.description}")
            print(f"{'':20s} expected: {', '.join(fault.expected_invariants)}")
        for service_fault in SERVICE_FAULTS.values():
            print(f"{service_fault.name:20s} {service_fault.description}")
            print(f"{'':20s} expected: error code {service_fault.expected_code}")
        return 0

    if args.inject:
        results: list = []
        if args.inject == "all":
            results = list(run_all_faults()) + list(run_all_service_faults())
        elif args.inject in FAULTS:
            results = [run_fault(args.inject)]
        elif args.inject in SERVICE_FAULTS:
            results = [run_service_fault(args.inject)]
        else:
            print(
                f"unknown fault {args.inject!r} — see `repro verify --list-faults`"
            )
            return 2
        for outcome in results:
            print(outcome.render())
        missed = [outcome for outcome in results if not outcome.caught]
        print(
            f"{len(results) - len(missed)}/{len(results)} fault(s) caught"
        )
        return 1 if missed else 0

    try:
        report = run_verification(n_instructions=args.instructions)
    except SimCheckError as error:
        print(f"VERIFICATION FAILED: {error}")
        return 1
    print(report.render())
    return 0


def _cache(args: argparse.Namespace) -> int:
    from repro.analysis.runner import cache_stats, clear_disk_cache, verify_disk_cache

    if args.cache_action == "stats":
        stats = cache_stats()
        if args.json:
            import json

            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        bound = lambda v: "unbounded" if v is None else str(v)  # noqa: E731
        print(f"directory      {stats['directory']}")
        print(f"disk cache     {'enabled' if stats['disk_enabled'] else 'disabled'}")
        print(f"cache version  {stats['cache_version']}")
        print(f"disk entries   {stats['disk_entries']} (max {bound(stats['max_entries'])})")
        print(f"disk bytes     {stats['disk_bytes']} (max {bound(stats['max_bytes'])})")
        print(f"temp files     {stats['temp_files']}")
        print(f"memory entries {stats['memory_entries']}")
        snapshot = stats["snapshot_entries"]
        print(
            "snapshot       "
            + ("none" if snapshot is None else f"{snapshot} entries indexed")
        )
        lifetime = stats.get("telemetry")
        if lifetime is None:
            print("lifetime       (off — set REPRO_SIM_TELEMETRY=1 to track rates)")
        else:
            rate = lifetime["hit_rate"]
            print(
                "lifetime       "
                f"hit rate {'n/a' if rate is None else f'{rate * 100:.1f}%'} "
                f"(memory {lifetime['hits_memory']} + disk {lifetime['hits_disk']} "
                f"hits, {lifetime['misses']} misses), "
                f"{lifetime['stores']} stores, {lifetime['evictions']} evictions, "
                f"{lifetime['corrupt_dropped']} corrupt dropped"
            )
        return 0
    if args.cache_action == "clear":
        print(f"removed {clear_disk_cache()} cached result(s)")
        return 0
    if args.cache_action == "verify":
        report = verify_disk_cache(fix=args.fix)
        print(f"ok      {report['ok']}")
        print(f"corrupt {len(report['corrupt'])}")
        for name in report["corrupt"]:
            print(f"  {name}{'  (deleted)' if args.fix else ''}")
        # Any corrupt entry is a non-zero exit, --fix or not: scripts and
        # CI gate on "the cache was (found) bad", not "is bad now".
        return 1 if report["corrupt"] else 0
    if args.cache_action == "prune":
        from repro.serve.eviction import prune, resolve_max_bytes, resolve_max_entries

        max_bytes = resolve_max_bytes(args.max_bytes)
        max_entries = resolve_max_entries(args.max_entries)
        if max_bytes is None and max_entries is None:
            print(
                "cache prune: no bound given (use --max-bytes/--max-entries "
                "or REPRO_SIM_CACHE_MAX_BYTES/REPRO_SIM_CACHE_MAX_ENTRIES)",
                file=sys.stderr,
            )
            return 2
        report = prune(max_bytes, max_entries, dry_run=args.dry_run)
        print(report.render())
        return 0
    if args.cache_action == "snapshot":
        from repro.serve.snapshot import read_snapshot, write_snapshot

        path = write_snapshot()
        index = read_snapshot() or {}
        print(f"wrote {path} ({len(index)} entries indexed)")
        return 0
    raise AssertionError(f"unhandled cache action {args.cache_action}")


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ExperimentServer

    server = ExperimentServer(
        args.host,
        args.port,
        shards=args.shards,
        mode=args.mode,
        job_timeout=args.job_timeout,
        max_pending=args.max_pending,
        metrics_port=args.metrics_port,
    )

    async def _run() -> None:
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nserver stopped")
    return 0


def _top(args: argparse.Namespace) -> int:
    from repro.observe.telemetry.top import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        once=args.once,
        as_json=args.json,
    )


def _export(args: argparse.Namespace) -> int:
    from repro.isa.ingest import detect_format
    from repro.isa.errors import TraceFormatError

    trace = load_workload(args.workload, args.instructions).trace
    try:
        fmt = detect_format(args.path)
    except TraceFormatError:
        fmt = "npz"
    if fmt == "text":
        from repro.isa.textio import dump_text

        dump_text(trace, args.path)
    elif fmt == "champsim":
        from repro.isa.champsim import dump_champsim

        dump_champsim(trace, args.path)
    elif fmt == "cvp":
        from repro.isa.cvp import dump_cvp

        dump_cvp(trace, args.path)
    elif fmt == "riscv":
        from repro.isa.riscv import dump_riscv

        dump_riscv(trace, args.path)
    else:
        trace.save(args.path)
    print(f"wrote {len(trace)} instructions to {args.path} ({fmt})")
    return 0


def _ingest(args: argparse.Namespace) -> int:
    from repro.isa.errors import TraceFormatError

    if args.ingest_action == "inspect":
        from repro.analysis.characterize import trace_profile
        from repro.isa.ingest import load_any

        try:
            result = load_any(
                args.file, fmt=args.format, max_instructions=args.instructions
            )
        except TraceFormatError as error:
            print(f"ingest: {error}", file=sys.stderr)
            return 1
        print(f"file           {args.file}")
        print(f"format         {result.format}")
        print(f"normalization  {result.report.render()}")
        for key, value in trace_profile(result.trace).items():
            print(f"{key:22s} {value}")
        return 0

    if args.ingest_action == "convert":
        from repro.isa.ingest import load_any
        from repro.workloads.store import ingest_trace, store_dir

        try:
            result = load_any(
                args.file,
                fmt=args.format,
                max_instructions=args.instructions,
                name=args.name,
            )
            meta = ingest_trace(
                result.trace, args.name, result.format, source_path=str(args.file)
            )
        except (TraceFormatError, ValueError) as error:
            print(f"ingest: {error}", file=sys.stderr)
            return 1
        print(f"registered     {meta.name} ({meta.instructions} instructions)")
        print(f"source         {args.file} ({result.format})")
        print(f"normalization  {result.report.render()}")
        print(f"digest         {meta.digest}")
        print(f"store          {store_dir()}")
        print(f"\nrun it with: repro simulate {meta.name}")
        return 0

    if args.ingest_action == "characterize":
        from repro.analysis.characterize import (
            characterize_many,
            format_characterization,
        )
        from repro.workloads.store import ingested_names

        names = args.workloads or ingested_names()
        if not names:
            from repro.experiments import QUICK

            names = list(QUICK.workloads)
        try:
            rows = characterize_many(
                names, args.instructions, simulate=not args.no_simulate
            )
        except (KeyError, TraceFormatError) as error:
            print(f"ingest: {error.args[0]}", file=sys.stderr)
            return 1
        print(format_characterization(rows))
        if args.json:
            import json

            from repro.common.output import resolve_output_path

            path = resolve_output_path(args.json)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump([row.as_dict() for row in rows], handle, indent=2)
                handle.write("\n")
            print(f"\nwrote {path}")
        return 0
    raise AssertionError(f"unhandled ingest action {args.ingest_action}")


def _lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import (
        RULES,
        LintEngine,
        LintInternalError,
        render_json,
        render_text,
    )

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code].title}")
        return 0
    if args.explain:
        rule = RULES.get(args.explain.upper())
        if rule is None:
            print(
                f"unknown rule {args.explain!r}; known: {', '.join(sorted(RULES))}",
                file=sys.stderr,
            )
            return 2
        print(rule.explain())
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    engine = LintEngine()
    try:
        if args.write_schema:
            snapshot = engine.write_schema_snapshot(paths)
            print(
                f"wrote {engine.schema_path} "
                f"(cache_version {snapshot['cache_version']})"
            )
            return 0
        report = engine.lint_paths(paths)
    except LintInternalError as error:
        print(f"lint: internal error: {error}", file=sys.stderr)
        return 2
    if args.callgraph_out:
        import json as _json

        assert engine.analysis is not None  # built by lint_paths
        Path(args.callgraph_out).write_text(
            _json.dumps(engine.analysis.to_payload(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    output = render_json(report) if args.json else render_text(report) + "\n"
    sys.stdout.write(output)
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "workloads":
            return _workloads()
        if args.command == "simulate":
            return _simulate(args)
        if args.command == "profile":
            return _profile(args)
        if args.command == "trace":
            return _trace(args)
        if args.command == "metrics":
            return _metrics(args)
        if args.command == "experiment":
            return _experiment(args)
        if args.command == "verify":
            return _verify(args)
        if args.command == "cache":
            return _cache(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "top":
            return _top(args)
        if args.command == "export":
            return _export(args)
        if args.command == "ingest":
            return _ingest(args)
        if args.command == "lint":
            return _lint(args)
    except KeyError as error:
        # Workload names resolve at run time (suite + ingested store);
        # an unknown name lands here with a choose-from message.
        print(error.args[0], file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Differential and failure-path tests for the parallel experiment engine.

The engine's contract is *bit-identical results*: running a suite through
``ParallelRunner`` (any worker count) must produce exactly the same
``SimResult`` fields as serial ``run_cached`` — same seeds, same stats
dicts, same cycle counts.  These tests verify that contract, the
``jobs=1`` fallback, worker-count resolution, single-flight dedup, and
that a failed worker leaves the cache uncorrupted.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.analysis.result_cache as result_cache
import repro.analysis.runner as runner
from repro.analysis.parallel import (
    ParallelExecutionError,
    ParallelRunner,
    SimJob,
    resolve_job_count,
    resolve_job_timeout,
)
from repro.core import SimConfig

#: A QUICK-flavoured but test-sized suite: one workload per category.
SUITE = ("srv_02", "int_02", "crypto_02", "fp_01")
N_INSTRUCTIONS = 2_000


def _result_fields(result):
    """Every externally observable field of a SimResult, for equality."""
    return {
        "name": result.name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "window": result.window,
        "window_instructions": result.window_instructions,
        "window_cycles": result.window_cycles,
        "confidence": {
            name: stats.stats.as_dict()
            for name, stats in result.confidence.items()
        },
    }


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    monkeypatch.delenv("REPRO_SIM_JOBS", raising=False)
    result_cache._memory_cache.clear()
    yield tmp_path
    result_cache._memory_cache.clear()


def _serial_reference(tmp_path, monkeypatch):
    """Serial run_cached results computed against an isolated cache."""
    serial_dir = tmp_path / "serial"
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(serial_dir))
    result_cache._memory_cache.clear()
    reference = {
        name: _result_fields(
            runner.run_cached(name, SimConfig(), N_INSTRUCTIONS)
        )
        for name in SUITE
    }
    result_cache._memory_cache.clear()
    return reference


class TestDifferential:
    def test_parallel_identical_to_serial(self, fresh_cache, monkeypatch):
        reference = _serial_reference(fresh_cache, monkeypatch)

        parallel_dir = fresh_cache / "parallel"
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(parallel_dir))
        engine = ParallelRunner(jobs=2)
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in SUITE]
        results = engine.run(jobs)

        assert engine.stats.counters["jobs_simulated"] == len(SUITE)
        for job in jobs:
            assert _result_fields(results[job.key]) == reference[job.workload]

    def test_jobs_1_fallback_identical(self, fresh_cache, monkeypatch):
        reference = _serial_reference(fresh_cache, monkeypatch)

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(fresh_cache / "one"))
        engine = ParallelRunner(jobs=1)
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in SUITE]
        results = engine.run(jobs)
        for job in jobs:
            assert _result_fields(results[job.key]) == reference[job.workload]

    def test_run_suite_matches_run_cached(self, fresh_cache):
        suite = runner.run_suite(list(SUITE), SimConfig(), N_INSTRUCTIONS)
        for name in SUITE:
            direct = runner.run_cached(name, SimConfig(), N_INSTRUCTIONS)
            assert _result_fields(suite[name]) == _result_fields(direct)


class TestScheduling:
    def test_duplicate_jobs_simulate_once(self, fresh_cache):
        engine = ParallelRunner(jobs=2)
        job = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        results = engine.run([job, job, job])
        assert engine.stats.counters["jobs_requested"] == 3
        assert engine.stats.counters["jobs_deduped"] == 2
        assert engine.stats.counters["jobs_simulated"] == 1
        assert set(results) == {job.key}

    def test_cache_hits_not_resimulated(self, fresh_cache):
        job = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        ParallelRunner(jobs=1).run([job])
        result_cache._memory_cache.clear()  # force the disk path
        engine = ParallelRunner(jobs=1)
        engine.run([job])
        assert engine.stats.counters["jobs_from_disk"] == 1
        assert engine.stats.counters["jobs_simulated"] == 0
        engine2 = ParallelRunner(jobs=1)
        engine2.run([job])
        assert engine2.stats.counters["jobs_from_memory"] == 1

    def test_progress_callback_sees_every_job(self, fresh_cache):
        seen = []
        engine = ParallelRunner(
            jobs=2, progress=lambda done, total, job: seen.append((done, total))
        )
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in SUITE]
        engine.run(jobs)
        assert len(seen) == len(SUITE)
        assert seen[-1] == (len(SUITE), len(SUITE))
        assert [done for done, _ in seen] == list(range(1, len(SUITE) + 1))

    def test_worker_count_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_JOBS", raising=False)
        assert resolve_job_count(3) == 3
        assert resolve_job_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_SIM_JOBS", "7")
        assert resolve_job_count() == 7
        assert resolve_job_count(2) == 2  # explicit arg wins
        monkeypatch.setenv("REPRO_SIM_JOBS", "not-a-number")
        assert resolve_job_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_SIM_JOBS", "0")
        assert resolve_job_count() == 1  # clamped

    @pytest.mark.parametrize("case", ["misses", "hits", "real-body"])
    def test_run_keys_each_job_once(self, fresh_cache, monkeypatch, case):
        """Dedup, probe, merge, the job body and the result dict all read
        the job's one key: N distinct jobs cost at most N ``cache_key``
        calls."""
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in SUITE]
        if case == "hits":
            # Warm the cache through copies: the counted jobs start unkeyed.
            ParallelRunner(jobs=1).run(
                [SimJob(job.workload, job.config, job.n_instructions) for job in jobs]
            )
        if case != "real-body":
            canned = runner.run_job("fp_01", SimConfig(), 500)[0]
            monkeypatch.setattr(
                runner, "job_entry", lambda *args: (canned, 0.0, None, [])
            )
        calls = []
        real = result_cache.cache_key

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(result_cache, "cache_key", counting)
        results = ParallelRunner(jobs=1).run(jobs + jobs)
        assert set(results) == {job.key for job in jobs}
        assert len(calls) <= len(jobs), calls
        if case == "real-body":
            # Every job simulated, and the body reused the engine's key.
            assert len(calls) == len(jobs)
            assert result_cache.verify_disk_cache() == {"ok": len(jobs), "corrupt": []}

    def test_engine_stats_render(self, fresh_cache):
        engine = ParallelRunner(jobs=1)
        engine.run([SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)])
        text = engine.stats.render()
        assert "1 simulated" in text and "jobs/s" in text
        assert engine.stats.throughput > 0.0


class TestFailurePaths:
    def test_failed_worker_raises_and_preserves_cache(self, fresh_cache):
        engine = ParallelRunner(jobs=2)
        jobs = [
            SimJob("fp_01", SimConfig(), N_INSTRUCTIONS),
            SimJob("no_such_workload", SimConfig(), N_INSTRUCTIONS),
            SimJob("crypto_02", SimConfig(), N_INSTRUCTIONS),
        ]
        with pytest.raises(ParallelExecutionError) as excinfo:
            engine.run(jobs)
        assert "no_such_workload" in str(excinfo.value)
        assert engine.stats.counters["jobs_failed"] == 1
        # The good jobs landed in the cache, and every entry is valid.
        assert engine.stats.counters["jobs_simulated"] == 2
        report = result_cache.verify_disk_cache()
        assert report["corrupt"] == []
        assert report["ok"] == 2

    def test_failed_worker_serial_fallback(self, fresh_cache):
        engine = ParallelRunner(jobs=1)
        with pytest.raises(ParallelExecutionError):
            engine.run([SimJob("no_such_workload", SimConfig(), 1_000)])
        assert result_cache.verify_disk_cache() == {"ok": 0, "corrupt": []}

    def test_results_usable_after_partial_failure(self, fresh_cache):
        engine = ParallelRunner(jobs=2)
        good = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        bad = SimJob("no_such_workload", SimConfig(), N_INSTRUCTIONS)
        with pytest.raises(ParallelExecutionError):
            engine.run([good, bad])
        # The good result is cached: a retry without the bad job is a hit.
        retry = ParallelRunner(jobs=2)
        retry.run([good])
        assert retry.stats.counters["jobs_simulated"] == 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="wall-clock speedup needs >= 2 cores"
)
class TestSpeedup:
    def test_parallel_faster_than_serial_uncached(self, fresh_cache, monkeypatch):
        """Best of three alternating serial / ``jobs=4`` runs, each on a
        fresh cache dir: one wall-clock sample per side is at the mercy of
        whatever else shares the host."""
        from repro.experiments.common import QUICK

        jobs = [
            SimJob(name, SimConfig(), QUICK.n_instructions)
            for name in QUICK.workloads
        ]

        def timed(workers: int, cache_dir) -> float:
            monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(cache_dir))
            result_cache._memory_cache.clear()
            start = time.perf_counter()
            ParallelRunner(jobs=workers).run(jobs)
            return time.perf_counter() - start

        serial: list[float] = []
        parallel: list[float] = []
        for round_ in range(3):
            serial.append(timed(1, fresh_cache / f"serial-{round_}"))
            parallel.append(timed(4, fresh_cache / f"par-{round_}"))

        assert min(parallel) < min(serial), (serial, parallel)


def _wedged_execute(workload, config, n_instructions, *args):
    """Module-level (picklable) stand-in for ``runner.job_entry`` that
    wedges on one workload — pool workers resolve it by qualified name."""
    if workload == "int_02":
        time.sleep(60.0)  # far past the test timeout; the pool is killed
    return runner.run_job(workload, config, n_instructions, *args)


class TestJobTimeout:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_JOB_TIMEOUT", raising=False)
        assert resolve_job_timeout() is None
        assert resolve_job_timeout(2.5) == 2.5
        monkeypatch.setenv("REPRO_SIM_JOB_TIMEOUT", "7")
        assert resolve_job_timeout() == 7.0
        assert resolve_job_timeout(2.5) == 2.5  # explicit arg wins
        for garbage in ("0", "-3", "soon", ""):
            monkeypatch.setenv("REPRO_SIM_JOB_TIMEOUT", garbage)
            assert resolve_job_timeout() is None

    def test_runner_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOB_TIMEOUT", "9.5")
        assert ParallelRunner(jobs=2).job_timeout == 9.5
        assert ParallelRunner(jobs=2, job_timeout=1.0).job_timeout == 1.0

    def test_wedged_job_fails_cleanly(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(runner, "job_entry", _wedged_execute)
        engine = ParallelRunner(jobs=2, job_timeout=1.5)
        good = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        wedged = SimJob("int_02", SimConfig(), N_INSTRUCTIONS)
        start = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            engine.run([good, wedged])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0  # abandoned, not awaited for 60s
        failures = excinfo.value.failures
        assert len(failures) == 1
        job, error = failures[0]
        assert job.key == wedged.key
        assert error.code == "timeout"
        assert "per-job timeout" in str(error)
        assert engine.stats.counters["jobs_timed_out"] == 1
        # The healthy job completed and is cached: a retry is a pure hit.
        retry = ParallelRunner(jobs=2)
        retry.run([good])
        assert retry.stats.counters["jobs_simulated"] == 0
        # The wedged key never produced a (possibly truncated) entry.
        report = result_cache.verify_disk_cache()
        assert report["corrupt"] == []

    def test_serial_path_ignores_timeout(self, fresh_cache):
        # The in-process fallback cannot abandon a job; a tiny timeout
        # must not fail healthy serial runs.
        engine = ParallelRunner(jobs=1, job_timeout=0.001)
        job = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        results = engine.run([job])
        assert results[job.key].name == "fp_01"


@pytest.fixture()
def telemetry_on(monkeypatch):
    from repro.observe import telemetry

    monkeypatch.setenv("REPRO_SIM_TELEMETRY", "1")
    telemetry.reset()
    yield
    telemetry.reset()


class TestCacheCounters:
    """A cold batch probes each key once: one miss, no phantom disk hit."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_batch_counts_one_miss_per_job(self, fresh_cache, telemetry_on, jobs):
        runner.run_suite(["fp_01", "int_02"], SimConfig(), N_INSTRUCTIONS, jobs=jobs)
        stats = result_cache.lifetime_cache_stats()
        assert stats["hits_disk"] == 0
        assert stats["misses"] == 2
        # Pool workers store (and count) in their own processes.
        assert stats["stores"] == (2 if jobs == 1 else 0)
        assert result_cache.verify_disk_cache() == {"ok": 2, "corrupt": []}


@pytest.fixture()
def counting_pool(monkeypatch):
    """Swap the engine's pool class for one that logs constructions and
    shutdowns; returns the log.  Each worker slot builds its own
    single-worker pool, so the log counts slot starts."""
    import repro.analysis.parallel as parallel

    log = {"created": [], "shutdowns": []}

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log["created"].append(self)

        def shutdown(self, *args, **kwargs):
            log["shutdowns"].append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return log


def _register(monkeypatch, run, render=lambda result: "done"):
    """Register a stub driver as experiment ``stub``."""
    import types

    from repro.experiments import registry

    monkeypatch.setitem(
        registry.EXPERIMENTS, "stub", types.SimpleNamespace(run=run, render=render)
    )


def _within(seconds, fn, *args):
    """Call ``fn`` on a thread (in this context, so a pool scope carries
    over) and return its result; an engine that hangs fails the test
    instead of stalling the suite."""
    import contextvars
    import threading

    outcome = {}

    def call():
        try:
            outcome["value"] = fn(*args)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=contextvars.copy_context().run, args=(call,), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the engine hung for {seconds:.0f}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestPoolScope:
    SCALE_WORKLOADS = ("fp_01", "int_02")

    def _scale(self):
        from repro.experiments.common import Scale

        return Scale("test", self.SCALE_WORKLOADS, N_INSTRUCTIONS)

    def test_driver_batches_share_one_pool(self, fresh_cache, counting_pool, monkeypatch):
        import multiprocessing

        from repro.experiments.common import (
            baseline_config,
            no_uop_config,
            run_all,
            ucp_config,
        )
        from repro.experiments.registry import run_experiment

        def run(scale):
            return [
                run_all(config, scale)
                for config in (no_uop_config(), baseline_config(), ucp_config())
            ]

        _register(monkeypatch, run)
        result, _ = run_experiment("stub", self._scale(), jobs=2)
        assert [sorted(batch) for batch in result] == [sorted(self.SCALE_WORKLOADS)] * 3
        # Two slots, each started once for all three batches.
        assert len(counting_pool["created"]) == 2
        assert set(counting_pool["shutdowns"]) == set(counting_pool["created"])
        assert multiprocessing.active_children() == []

    def test_timeout_replaces_only_the_wedged_slot(self, fresh_cache, counting_pool, monkeypatch):
        import multiprocessing

        from repro.experiments.registry import run_experiment

        monkeypatch.setattr(runner, "job_entry", _wedged_execute)
        good = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        wedged = SimJob("int_02", SimConfig(), N_INSTRUCTIONS)
        later = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("crypto_02", "srv_02")]

        def run(scale):
            with pytest.raises(ParallelExecutionError) as excinfo:
                ParallelRunner(job_timeout=1.5).run([good, wedged])
            assert excinfo.value.failures[0][1].code == "timeout"
            # Both slots started; only the wedged one was killed.
            started = list(counting_pool["created"])
            killed = list(counting_pool["shutdowns"])
            return started, killed, ParallelRunner().run(later)

        _register(monkeypatch, run)
        start = time.perf_counter()
        (started, killed, results), _ = run_experiment("stub", jobs=2)
        assert time.perf_counter() - start < 30.0
        assert set(results) == {job.key for job in later}
        assert len(started) == 2 and len(killed) == 1 and killed[0] in started
        # The later batch ran on the surviving slot and one replacement.
        assert len(counting_pool["created"]) == 3
        assert multiprocessing.active_children() == []

    def test_idle_worker_killed_between_batches_is_replaced(self, fresh_cache, counting_pool):
        import multiprocessing
        import signal

        from repro.analysis.parallel import pool_scope

        first = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("fp_01", "int_02")]
        second = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("crypto_02", "srv_02")]
        with pool_scope(2):
            ParallelRunner().run(first)
            pools = list(counting_pool["created"])
            assert pools
            for pool in pools:
                for process in list(pool._processes.values()):
                    os.kill(process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while not all(pool._broken for pool in pools):
                assert time.monotonic() < deadline, "the pools never noticed the kill"
                time.sleep(0.05)
            results = _within(60.0, ParallelRunner().run, second)
        assert set(results) == {job.key for job in second}
        assert multiprocessing.active_children() == []

    def test_slot_that_cannot_start_a_worker_fails_its_jobs(self, fresh_cache, monkeypatch):
        import repro.analysis.parallel as parallel

        class NoFork(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", NoFork)
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("fp_01", "int_02")]

        def run():
            with pytest.raises(ParallelExecutionError) as excinfo:
                ParallelRunner(jobs=2).run(jobs)
            return excinfo.value.failures

        failures = _within(60.0, run)
        assert sorted(job.key for job, _ in failures) == sorted(job.key for job in jobs)
        assert {error.code for _, error in failures} == {"internal"}

    def test_bare_runs_start_and_stop_their_own_pool(self, fresh_cache, counting_pool):
        import multiprocessing

        for names in (("fp_01", "int_02"), ("crypto_02", "srv_02")):
            ParallelRunner(jobs=2).run(
                [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in names]
            )
            assert multiprocessing.active_children() == []
        # Two slots per batch, each started and joined within its batch.
        assert len(counting_pool["created"]) == 4
        assert set(counting_pool["shutdowns"]) == set(counting_pool["created"])

    def test_one_worker_or_one_pending_job_starts_no_pool(self, fresh_cache, counting_pool):
        jobs = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("fp_01", "int_02")]
        ParallelRunner(jobs=1).run(jobs)
        ParallelRunner(jobs=2).run([SimJob("crypto_02", SimConfig(), N_INSTRUCTIONS)])
        assert counting_pool["created"] == []

    def test_jobs_reach_runners_without_touching_environ(self, fresh_cache, monkeypatch):
        from repro import cli
        from repro.experiments.registry import run_experiment

        seen = []

        def run(scale):
            seen.append((dict(os.environ), ParallelRunner().jobs))
            return None

        _register(monkeypatch, run)
        before = dict(os.environ)
        run_experiment("stub", jobs=3)
        assert cli.main(["experiment", "stub", "--jobs", "5"]) == 0
        assert seen == [(before, 3), (before, 5)]
        assert dict(os.environ) == before

    def test_fig10_identical_at_one_and_two_workers(self, fresh_cache, monkeypatch):
        from repro.experiments.common import Scale
        from repro.experiments.registry import run_experiment

        scale = Scale("test", ("fp_01", "int_02", "srv_05", "dc_interp_01"), N_INSTRUCTIONS)
        rendered = []
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(fresh_cache / f"jobs{jobs}"))
            result_cache._memory_cache.clear()
            rendered.append(run_experiment("fig10", scale, jobs=jobs)[1])
        assert rendered[0] == rendered[1]


#: The test process; a crash double must never exit it.
_TEST_PID = os.getpid()


def _crashing_entry(workload, config, n_instructions, *args):
    """Module-level stand-in for ``runner.job_entry`` whose worker process
    dies on one workload.  Each attempt is logged under the cache
    directory first, so the test can count attempts across processes."""
    if workload == "int_02":
        log = os.path.join(os.environ["REPRO_SIM_CACHE_DIR"], "attempts.log")
        with open(log, "a") as handle:
            handle.write(f"{workload}\n")
        if os.getpid() == _TEST_PID:
            raise RuntimeError("the crashing job ran in the test process")
        os._exit(17)
    return runner.run_job(workload, config, n_instructions, *args)


def _crash_attempts(cache_dir):
    log = cache_dir / "attempts.log"
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestWorkerCrash:
    def test_crash_is_retried_typed_and_quarantined(self, fresh_cache, monkeypatch):
        from repro.analysis.parallel import pool_scope

        monkeypatch.setattr(runner, "job_entry", _crashing_entry)
        names = ("fp_01", "int_02", "srv_02", "crypto_02", "srv_05", "dc_interp_01")
        batch = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in names]
        victim = batch[1]
        with pool_scope(2):
            engine = ParallelRunner()
            with pytest.raises(ParallelExecutionError) as excinfo:
                engine.run(batch)
            [(job, error)] = excinfo.value.failures
            assert job.key == victim.key and error.code == "worker-crash"
            assert _crash_attempts(fresh_cache) == 2  # the first try and one retry
            # Every other job completed and is on disk.
            assert engine.stats.counters["jobs_simulated"] == len(batch) - 1
            stored = {path.stem for path in fresh_cache.glob("*.pkl")}
            assert stored == {job.key for job in batch if job is not victim}
            assert result_cache.verify_disk_cache() == {"ok": len(batch) - 1, "corrupt": []}

            # The next batch in the scope refuses the key without a worker.
            later = SimJob("int_01", SimConfig(), N_INSTRUCTIONS)
            start = time.perf_counter()
            with pytest.raises(ParallelExecutionError) as excinfo:
                ParallelRunner().run([victim, later])
            assert time.perf_counter() - start < 30.0
            [(job, error)] = excinfo.value.failures
            assert job.key == victim.key and error.code == "quarantined"
            assert _crash_attempts(fresh_cache) == 2
            assert result_cache.verify_disk_cache()["ok"] == len(batch)


class TestOneQueue:
    def test_free_slot_takes_jobs_whatever_their_key(self, fresh_cache, monkeypatch):
        """Three jobs whose keys share the blocked job's key parity still
        run on the other slot while the blocker holds its own."""
        import asyncio
        import threading

        from repro.analysis.parallel import Scheduler
        from repro.workloads import SUITE as ALL_WORKLOADS

        release = threading.Event()
        blocker = SimJob("srv_02", SimConfig(), N_INSTRUCTIONS)
        parity = int(blocker.key, 16) % 2
        others = [
            job
            for job in (SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in sorted(ALL_WORKLOADS))
            if job.key != blocker.key and int(job.key, 16) % 2 == parity
        ][:3]
        assert len(others) == 3

        def blocking(workload, config, n_instructions, *args):
            if workload == blocker.workload:
                release.wait(60.0)
            return runner.run_job(workload, config, n_instructions, *args)

        monkeypatch.setattr(runner, "job_entry", blocking)

        async def scenario():
            scheduler = Scheduler(2, mode="thread")
            await scheduler.start()
            try:
                held = scheduler.submit(blocker)
                while scheduler.stats()["in_flight"] < 1:
                    await asyncio.sleep(0.01)
                flights = [scheduler.submit(job) for job in others]
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*(flight.wait() for flight in flights)), 30.0
                )
                assert not held.done
                return outcomes
            finally:
                release.set()
                await scheduler.close()

        outcomes = asyncio.run(scenario())
        assert [outcome.source for outcome in outcomes] == ["simulated"] * 3


class TestDispatcherSurvives:
    def test_engine_error_fails_only_its_flight(self, fresh_cache, monkeypatch):
        """An error outside the job body (here: merging its spans) fails
        that flight with ``internal``; the slot's dispatcher lives on and
        runs the next flight."""
        import asyncio

        from repro.analysis.parallel import JobError, Scheduler

        calls = []

        def record_spans(spans):
            calls.append(spans)
            if len(calls) == 1:
                raise RuntimeError("span sink broke")

        monkeypatch.setattr(runner, "record_spans", record_spans)
        first, second = (SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("fp_01", "int_02"))

        async def scenario():
            scheduler = Scheduler(1, mode="thread")
            await scheduler.start()
            try:
                with pytest.raises(JobError) as excinfo:
                    await asyncio.wait_for(scheduler.submit(first).wait(), 30.0)
                assert excinfo.value.code == "internal"
                return await asyncio.wait_for(scheduler.submit(second).wait(), 30.0)
            finally:
                await scheduler.close()

        assert asyncio.run(scenario()).source == "simulated"


def _niceness_entry(*args):
    """Module-level stand-in for ``runner.job_entry`` reporting the CPU
    niceness its worker runs at."""
    return os.nice(0)


@pytest.mark.skipif(not hasattr(os, "nice"), reason="no os.nice on this platform")
class TestWorkerPriority:
    """Busy slot workers run below the CPU priority of the process that
    owns them, so its event loop answers cache hits promptly."""

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_slot_niceness(self, fresh_cache, monkeypatch, mode):
        from repro.analysis.scheduler import WorkerSlot

        monkeypatch.setattr(runner, "job_entry", _niceness_entry)
        server = os.nice(0)
        slot = WorkerSlot(0, mode)
        try:
            reported = slot.submit(SimJob("fp_01", SimConfig(), N_INSTRUCTIONS), False, None)
            niceness = reported.result(timeout=60.0)
        finally:
            slot.close(kill=True)
        assert niceness == (min(server + 10, 19) if mode == "process" else server)
        assert os.nice(0) == server

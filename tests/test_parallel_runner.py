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

import repro.analysis.runner as runner
from repro.analysis.parallel import (
    JobTimeoutError,
    ParallelExecutionError,
    ParallelRunner,
    SimJob,
    resolve_job_count,
    resolve_job_timeout,
    run_jobs,
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
    runner._memory_cache.clear()
    yield tmp_path
    runner._memory_cache.clear()


def _serial_reference(tmp_path, monkeypatch):
    """Serial run_cached results computed against an isolated cache."""
    serial_dir = tmp_path / "serial"
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(serial_dir))
    runner._memory_cache.clear()
    reference = {
        name: _result_fields(
            runner.run_cached(name, SimConfig(), N_INSTRUCTIONS)
        )
        for name in SUITE
    }
    runner._memory_cache.clear()
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
        runner._memory_cache.clear()  # force the disk path
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
        report = runner.verify_disk_cache()
        assert report["corrupt"] == []
        assert report["ok"] == 2

    def test_failed_worker_serial_fallback(self, fresh_cache):
        engine = ParallelRunner(jobs=1)
        with pytest.raises(ParallelExecutionError):
            engine.run([SimJob("no_such_workload", SimConfig(), 1_000)])
        assert runner.verify_disk_cache() == {"ok": 0, "corrupt": []}

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
        from repro.experiments.common import QUICK

        jobs = [
            SimJob(name, SimConfig(), QUICK.n_instructions)
            for name in QUICK.workloads
        ]

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(fresh_cache / "serial"))
        runner._memory_cache.clear()
        start = time.perf_counter()
        ParallelRunner(jobs=1).run(jobs)
        serial_seconds = time.perf_counter() - start

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(fresh_cache / "par"))
        runner._memory_cache.clear()
        start = time.perf_counter()
        ParallelRunner(jobs=4).run(jobs)
        parallel_seconds = time.perf_counter() - start

        assert parallel_seconds < serial_seconds


class TestRunJobsHelper:
    def test_run_jobs_wrapper(self, fresh_cache):
        job = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        results = run_jobs([job], workers=1)
        assert results[job.key].name == "fp_01"


def _wedged_execute(workload, config, n_instructions):
    """Module-level (picklable) stand-in for ``_execute_job`` that wedges
    on one workload — pool workers resolve it by qualified name."""
    import repro.analysis.parallel as parallel

    if workload == "int_02":
        time.sleep(60.0)  # far past the test timeout; the pool is killed
    return parallel._original_execute_job(workload, config, n_instructions)


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
        import repro.analysis.parallel as parallel

        monkeypatch.setattr(
            parallel, "_original_execute_job", parallel._execute_job,
            raising=False,
        )
        monkeypatch.setattr(parallel, "_execute_job", _wedged_execute)
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
        assert isinstance(error, JobTimeoutError)
        assert "per-job timeout" in str(error)
        assert engine.stats.counters["jobs_timed_out"] == 1
        # The healthy job completed and is cached: a retry is a pure hit.
        retry = ParallelRunner(jobs=2)
        retry.run([good])
        assert retry.stats.counters["jobs_simulated"] == 0
        # The wedged key never produced a (possibly truncated) entry.
        report = runner.verify_disk_cache()
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
        stats = runner.lifetime_cache_stats()
        assert stats["hits_disk"] == 0
        assert stats["misses"] == 2
        # Pool workers store (and count) in their own processes.
        assert stats["stores"] == (2 if jobs == 1 else 0)
        assert runner.verify_disk_cache() == {"ok": 2, "corrupt": []}


@pytest.fixture()
def counting_pool(monkeypatch):
    """Swap the engine's pool class for one that logs constructions and
    shutdowns; returns the log."""
    import repro.analysis.parallel as parallel

    log = {"created": [], "shutdowns": 0}

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log["created"].append(self)

        def shutdown(self, *args, **kwargs):
            log["shutdowns"] += 1
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
        assert len(counting_pool["created"]) == 1
        assert counting_pool["shutdowns"] == 1
        assert multiprocessing.active_children() == []

    def test_timeout_replaces_the_pool(self, fresh_cache, counting_pool, monkeypatch):
        import multiprocessing

        import repro.analysis.parallel as parallel
        from repro.experiments.registry import run_experiment

        monkeypatch.setattr(
            parallel, "_original_execute_job", parallel._execute_job,
            raising=False,
        )
        monkeypatch.setattr(parallel, "_execute_job", _wedged_execute)
        good = SimJob("fp_01", SimConfig(), N_INSTRUCTIONS)
        wedged = SimJob("int_02", SimConfig(), N_INSTRUCTIONS)
        later = [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in ("crypto_02", "srv_02")]

        def run(scale):
            with pytest.raises(ParallelExecutionError) as excinfo:
                ParallelRunner(job_timeout=1.5).run([good, wedged])
            assert isinstance(excinfo.value.failures[0][1], JobTimeoutError)
            first = counting_pool["created"][0]
            return first, ParallelRunner().run(later)

        _register(monkeypatch, run)
        start = time.perf_counter()
        (first, results), _ = run_experiment("stub", jobs=2)
        assert time.perf_counter() - start < 30.0
        assert set(results) == {job.key for job in later}
        assert len(counting_pool["created"]) == 2
        assert counting_pool["created"][1] is not first
        assert multiprocessing.active_children() == []

    def test_bare_runs_start_and_stop_their_own_pool(self, fresh_cache, counting_pool):
        import multiprocessing

        for names in (("fp_01", "int_02"), ("crypto_02", "srv_02")):
            ParallelRunner(jobs=2).run(
                [SimJob(name, SimConfig(), N_INSTRUCTIONS) for name in names]
            )
            assert multiprocessing.active_children() == []
        assert len(counting_pool["created"]) == 2
        assert counting_pool["shutdowns"] == 2

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
            runner._memory_cache.clear()
            rendered.append(run_experiment("fig10", scale, jobs=jobs)[1])
        assert rendered[0] == rendered[1]

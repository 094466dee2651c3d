"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestWorkloadsCommand:
    def test_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "srv_01" in out and "crypto_01" in out and "fp_01" in out


class TestSimulateCommand:
    def test_baseline(self, capsys):
        assert main(["simulate", "fp_01", "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "hit rate" in out

    def test_ucp_report(self, capsys):
        assert main(
            ["simulate", "int_03", "--instructions", "5000", "--ucp"]
        ) == 0
        out = capsys.readouterr().out
        assert "UCP walks" in out
        assert "prefetch accuracy" in out

    def test_ucp_variant_implies_ucp(self, capsys):
        assert main(
            [
                "simulate",
                "int_03",
                "--instructions",
                "4000",
                "--ucp-variant",
                "till-l1i",
            ]
        ) == 0
        assert "UCP walks" in capsys.readouterr().out

    def test_no_uop_cache(self, capsys):
        assert main(
            ["simulate", "fp_01", "--instructions", "3000", "--no-uop-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "hit rate 0.0%" in out

    def test_mutually_exclusive_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "fp_01", "--no-uop-cache", "--ideal-uop-cache"])

    def test_unknown_workload_rejected(self, capsys):
        # Workload names resolve at run time (suite + ingested store), so
        # an unknown name is a clean exit-2 with a choose-from message,
        # not an argparse SystemExit.
        assert main(["simulate", "not_a_workload"]) == 2
        assert "not_a_workload" in capsys.readouterr().err

    def test_prefetcher_and_mrc(self, capsys):
        assert main(
            [
                "simulate",
                "srv_02",
                "--instructions",
                "4000",
                "--prefetcher",
                "fnl_mma",
                "--mrc",
                "64",
            ]
        ) == 0


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SIM_CACHE", "1")
        runner._memory_cache.clear()
        self.cache_dir = tmp_path

    def test_stats(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(self.cache_dir) in out
        assert "disk entries   0" in out

    def test_clear_reports_count(self, capsys):
        from repro.analysis.runner import run_cached
        from repro.core import SimConfig

        run_cached("fp_01", SimConfig(), 2_000)
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out

    def test_verify_flags_corruption_and_fixes(self, capsys):
        from repro.analysis.runner import run_cached
        from repro.core import SimConfig

        run_cached("fp_01", SimConfig(), 2_000)
        bad = self.cache_dir / ("f" * 32 + ".pkl")
        bad.write_bytes(b"garbage")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "ok      1" in out and "corrupt 1" in out
        # --fix deletes the bad entry but still exits non-zero: scripts
        # gate on "corruption was found", not "the cache is clean now".
        assert main(["cache", "verify", "--fix"]) == 1
        assert not bad.exists()
        assert main(["cache", "verify"]) == 0

    def test_action_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestVerifyCommand:
    def test_list_faults_includes_service_registry(self, capsys):
        assert main(["verify", "--list-faults"]) == 0
        out = capsys.readouterr().out
        # Model faults (PR 2 registry) and service faults side by side.
        assert "worker-killed" in out
        assert "slow-worker" in out
        assert "expected: error code worker-crash" in out

    def test_unknown_fault_exits_two(self, capsys):
        assert main(["verify", "--inject", "no-such-fault"]) == 2
        assert "unknown fault" in capsys.readouterr().out


class TestServeCommand:
    def test_argument_parsing(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--port", "7000", "--shards", "3", "--mode", "thread",
             "--job-timeout", "5.5", "--max-pending", "64"]
        )
        assert args.command == "serve"
        assert args.port == 7000 and args.shards == 3
        assert args.mode == "thread" and args.job_timeout == 5.5
        assert args.max_pending == 64

    def test_bad_mode_rejected(self):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "--mode", "fibers"])


class TestExportCommand:
    def test_export_text(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert main(
            ["export", "crypto_01", str(path), "--instructions", "400"]
        ) == 0
        content = path.read_text()
        assert "# trace: crypto_01" in content
        assert "NOT_BRANCH" in content

    def test_export_npz_roundtrip(self, tmp_path):
        from repro.isa import Trace

        path = tmp_path / "trace.npz"
        assert main(
            ["export", "crypto_01", str(path), "--instructions", "400"]
        ) == 0
        loaded = Trace.load(path)
        assert len(loaded) == 400
        loaded.validate()


class TestLintCommand:
    BAD = "import random\n\ndef pick(items):\n    return random.choice(items)\n"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.BAD)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.BAD)
        assert main(["lint", "--json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 3
        assert payload["counts_by_rule"] == {"SIM001": 1}

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "SIM004"]) == 0
        out = capsys.readouterr().out
        assert "pointer test" in out and "bad:" in out and "good:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "sim001"]) == 0
        assert "SIM001" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "SIM999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM004", "SIM007"):
            assert code in out

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "SIM000" in capsys.readouterr().out

"""What a cold start imports: each command loads only what it runs.

Every probe here is a fresh interpreter, because a module this test
process already imported would hide the regression.  A probe reports
``sys.modules`` as the interpreter exits, so a command that ends in
``SystemExit`` (``--help``) is measured too.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules a cold ``import repro.cli`` (and ``--help``) must not load.
CLI_FORBIDDEN = (
    "numpy",
    "asyncio",
    "repro.core.pipeline",
    "repro.analysis.scheduler",
    "repro.serve",
)


#: Modules a cold ``repro cache stats|clear|prune`` must not load.
CACHE_FORBIDDEN = (*CLI_FORBIDDEN, "repro.workloads")


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


#: Prefix of the line a probe writes with the modules loaded at exit.
MARK = "loaded-modules "


def _imported(code: str, **env: str) -> tuple[int, set[str]]:
    """Exit code and the modules loaded when a fresh interpreter running
    ``code`` exits."""
    probe = (
        "import atexit, json, sys\n"
        f"atexit.register(lambda: print({MARK!r} + json.dumps(sorted(sys.modules)), "
        "file=sys.stderr))\n" + code
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env(**env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    line = next(line for line in done.stderr.splitlines() if line.startswith(MARK))
    return done.returncode, set(json.loads(line[len(MARK):]))


def _run_repro(*argv: str, **env: str) -> tuple[int, set[str]]:
    """``python -m repro *argv``: exit code and the modules it loaded."""
    return _imported(
        f"import runpy\nsys.argv = ['repro', *{list(argv)!r}]\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n",
        **env,
    )


def _loaded(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


class TestCliImportSet:
    def test_import_repro_cli(self):
        code, modules = _imported("import repro.cli")
        assert code == 0
        assert "repro.cli" in modules
        assert _loaded(modules, CLI_FORBIDDEN) == []

    @pytest.mark.parametrize("argv", [("--help",), ("lint", "--help")])
    def test_help(self, argv):
        code, modules = _run_repro(*argv)
        assert code == 0
        assert "repro.cli" in modules
        assert _loaded(modules, CLI_FORBIDDEN) == []

    def test_one_figure_imports_one_driver(self, tmp_path):
        code, modules = _run_repro(
            "experiment", "fig10",
            "--workloads", "fp_01", "--instructions", "500", "--jobs", "1",
            REPRO_SIM_CACHE_DIR=str(tmp_path),
        )  # fmt: skip
        assert code == 0
        drivers = [m for m in modules if m.startswith("repro.experiments.fig")]
        assert drivers == ["repro.experiments.fig10_ucp_vs_base"]
        assert _loaded(modules, ("repro.serve",)) == []

    @pytest.mark.parametrize(
        "argv", [("stats",), ("clear",), ("prune", "--max-entries", "1")], ids=" ".join
    )
    def test_cache_command_leaves_the_simulator_out(self, tmp_path, argv):
        # These commands read no entry, so they need no SimResult.  With
        # telemetry on they load its plane, whose package imports numpy.
        for key in ("0" * 32, "1" * 32):
            (tmp_path / f"{key}.pkl").write_bytes(b"entry")
        code, modules = _run_repro(
            "cache", *argv, REPRO_SIM_CACHE_DIR=str(tmp_path), REPRO_SIM_TELEMETRY="0"
        )
        assert code == 0
        assert "repro.analysis.result_cache" in modules
        assert _loaded(modules, CACHE_FORBIDDEN) == []

    def test_scipy_stays_out_of_cold_imports(self):
        # scipy backs only confidence_interval; the CLI, the experiment
        # drivers and the server must not pay for it at import.
        probe = (
            "import sys, repro.cli, repro.experiments, repro.serve.server; "
            "assert 'scipy' not in sys.modules, 'scipy imported'"
        )
        subprocess.run([sys.executable, "-c", probe], env=_env(), check=True)


class TestEngineImportSet:
    def test_store_path_imports_nothing_from_serve(self, tmp_path):
        probe = (
            "import sys\n"
            "from repro.analysis import result_cache, runner\n"
            "from repro.core.configs import SimConfig\n"
            "from repro.core.pipeline import simulate\n"
            "from repro.workloads.suite import load_workload\n"
            "result = simulate(load_workload('fp_01', 500).trace, SimConfig())\n"
            "result_cache._store_disk('0' * 32, result)\n"
            "assert result_cache.cache_stats()['disk_entries'] == 1\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.serve')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=_env(REPRO_SIM_CACHE_DIR=str(tmp_path)),
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_scheduler_imports_the_simulator_before_any_fork(self):
        # Worker slots fork from a process that already imported the
        # simulator, so no worker pays that import on its first job.
        code, modules = _imported("import repro.analysis.scheduler")
        assert code == 0
        assert "repro.core.pipeline" in modules


#: The sanitizer's checks and oracles: loaded only when checking is armed.
SANITIZER = ("repro.verify.invariants", "repro.verify.oracles")


class TestSanitizerImportSet:
    SIMULATE = (
        "from repro.core.configs import SimConfig\n"
        "from repro.core.pipeline import Simulator\n"
        "from repro.workloads.suite import load_workload\n"
        "Simulator(load_workload('fp_01', 500).trace, SimConfig(), check={check}).run()\n"
    )

    def test_plain_simulate_leaves_the_sanitizer_out(self):
        code, modules = _imported(self.SIMULATE.format(check=False))
        assert code == 0
        assert "repro.verify" in modules
        assert _loaded(modules, SANITIZER) == []

    def test_checked_simulate_loads_the_sanitizer(self):
        code, modules = _imported(self.SIMULATE.format(check=True))
        assert code == 0
        assert _loaded(modules, SANITIZER) == list(SANITIZER)

    def test_reexports_resolve_to_the_defining_object(self):
        import repro.verify as verify

        for name, module in verify._EXPORTS.items():
            assert getattr(verify, name) is getattr(importlib.import_module(module), name)
        assert set(verify._EXPORTS) <= set(verify.__all__) <= set(dir(verify))
        with pytest.raises(AttributeError, match="no_such_name"):
            verify.no_such_name  # noqa: B018


@pytest.mark.parametrize("package", [repro, repro.analysis], ids=lambda p: p.__name__)
class TestLazyRoot:
    def test_all_resolves_to_the_defining_object(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            if name == "__version__":
                continue
            definer = importlib.import_module(package._EXPORTS[name])
            assert value is getattr(definer, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                # The table names the defining module, not a re-exporter.
                assert value.__module__ == definer.__name__, name

    def test_dir_lists_all_before_first_access(self, package):
        # In a fresh interpreter: here, earlier accesses cached the names.
        probe = (
            f"import {package.__name__} as p; "
            "missing = set(p.__all__) - set(dir(p)); assert not missing, missing"
        )
        subprocess.run([sys.executable, "-c", probe], env=_env(), check=True)

    def test_unknown_attribute_raises(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018

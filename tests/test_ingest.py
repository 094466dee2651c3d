"""Integration tests for the ingestion frontend and trace store.

Covers the acceptance path of the real-trace feature: a golden sample
converted via the CLI becomes a first-class workload whose simulation
results are bit-identical across runs, shared through the same result
cache the CLI and serve paths use, and keyed by trace *content* rather
than name.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.analysis.runner as runner
from repro.analysis.parallel import SimJob
from repro.cli import main
from repro.core import SimConfig
from repro.isa import TraceFormatError, load_any, normalize_trace
from repro.serve.protocol import expand_matrix
from repro.workloads import load_workload
from repro.workloads.store import (
    cache_token,
    ingest_trace,
    ingested_names,
    is_ingested,
    load_ingested,
    resolve_meta,
)

GOLDEN = Path(__file__).parent / "golden" / "traces"


class TestLoadAny:
    @pytest.mark.parametrize(
        "filename", ["dc300.champsim.bin.gz", "dc300.cvp.gz", "dc300.rv.gz"]
    )
    def test_golden_samples_ingest_identically(self, filename):
        """All three encodings of the same trace normalise to one stream."""
        result = load_any(GOLDEN / filename)
        result.trace.validate()
        reference = load_any(GOLDEN / "dc300.cvp.gz").trace
        assert (result.trace.next_pcs == reference.next_pcs).all()

    def test_normalize_is_idempotent(self):
        first, report = normalize_trace(load_any(GOLDEN / "branchy.cvp").trace)
        second, report2 = normalize_trace(first)
        assert report2.clean
        assert (second.pcs == first.pcs).all()
        assert (second.takens == first.takens).all()

    def test_max_instructions(self):
        result = load_any(GOLDEN / "dc300.cvp.gz", max_instructions=100)
        assert len(result.trace) == 100


class TestStore:
    def test_ingest_resolve_load(self, trace_store, branchy_trace):
        meta = ingest_trace(branchy_trace, "tiny", "text", source_path="x.txt")
        assert is_ingested("tiny")
        assert ingested_names() == ["tiny"]
        assert resolve_meta("tiny").instructions == len(branchy_trace)
        loaded = load_ingested("tiny")
        assert (loaded.pcs == branchy_trace.pcs).all()
        assert meta.digest == resolve_meta("tiny").digest

    def test_prefix_load_clamps(self, trace_store, branchy_trace):
        ingest_trace(branchy_trace, "tiny", "text")
        assert len(load_ingested("tiny", 5)) == 5
        assert len(load_ingested("tiny", 10_000)) == len(branchy_trace)

    def test_suite_names_are_protected(self, trace_store, branchy_trace):
        with pytest.raises(ValueError, match="shadows"):
            ingest_trace(branchy_trace, "srv_01", "text")

    def test_bad_names_rejected(self, trace_store, branchy_trace):
        for bad in ("", "a b", "x/y", "née"):
            with pytest.raises(ValueError, match="invalid"):
                ingest_trace(branchy_trace, bad, "text")

    def test_unknown_name_raises_keyerror(self, trace_store):
        with pytest.raises(KeyError):
            load_ingested("ghost")

    def test_tampered_npz_detected(self, trace_store, branchy_trace, sample_trace):
        ingest_trace(branchy_trace, "tiny", "text")
        # Overwrite the stored npz with a different trace behind the
        # manifest's back: the digest check must refuse it.
        sample_trace.save(trace_store / "tiny.npz")
        with pytest.raises(TraceFormatError, match="digest"):
            load_ingested("tiny")

    def test_corrupt_manifest_is_typed(self, trace_store, branchy_trace):
        ingest_trace(branchy_trace, "tiny", "text")
        (trace_store / "manifest.json").write_text("{nope")
        with pytest.raises(TraceFormatError, match="manifest"):
            load_ingested("tiny")

    def test_cache_token_tracks_content(self, trace_store, branchy_trace, sample_trace):
        assert cache_token("srv_01") == "srv_01"  # builtins: name only
        ingest_trace(branchy_trace, "tiny", "text")
        first = cache_token("tiny")
        assert first.startswith("tiny@")
        config = SimConfig()
        before = SimJob("tiny", config, 100).key
        ingest_trace(sample_trace, "tiny", "text")  # different content
        assert cache_token("tiny") != first
        # Jobs built after the re-registration key the new content, even
        # when they share a config object with an older job.
        after = SimJob("tiny", config, 100).key
        assert after != before
        (expanded,) = expand_matrix({"workloads": ["tiny"], "n_instructions": 100})
        assert expanded.key == after

    def test_load_workload_resolves_store(self, trace_store, branchy_trace):
        ingest_trace(branchy_trace, "tiny", "text")
        spec = load_workload("tiny")
        assert spec.name == "tiny"
        assert len(spec.trace) == len(branchy_trace)


class TestEndToEnd:
    """The PR's acceptance flow: convert -> simulate -> metrics, twice,
    bit-identically, through one shared result cache."""

    @pytest.fixture()
    def converted(self, trace_store, cache_dir):
        code = main(
            [
                "ingest", "convert", str(GOLDEN / "dc300.cvp.gz"),
                "--name", "golden-dc",
            ]
        )
        assert code == 0
        return "golden-dc"

    def test_convert_then_simulate_bit_identical(self, converted, capsys):
        assert main(["simulate", converted, "--instructions", "300"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", converted, "--instructions", "300"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "IPC" in first

    def test_cli_run_shares_cache_with_engine(self, converted, cache_dir):
        result = runner.run_cached("golden-dc", SimConfig(), 300)
        entries = list(cache_dir.glob("*.pkl"))
        assert len(entries) == 1
        # The engine path hits the same key: no new entry, same object.
        runner._memory_cache.clear()
        again = runner.run_cached("golden-dc", SimConfig(), 300)
        assert list(cache_dir.glob("*.pkl")) == entries
        assert again.ipc == result.ipc
        assert again.cycles == result.cycles

    def test_metrics_json_has_characterization(self, converted, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(
            [
                "metrics", converted, "--instructions", "300",
                "--json", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        block = payload["characterization"]
        assert block["instructions"] == 300
        assert block["branch_pki"] > 0

    def test_characterize_includes_ingested(self, converted, capsys):
        assert main(
            ["ingest", "characterize", "--instructions", "300", "--no-simulate"]
        ) == 0
        out = capsys.readouterr().out
        assert "golden-dc" in out

    def test_inspect_reports_format(self, capsys):
        assert main(["ingest", "inspect", str(GOLDEN / "dc300.rv.gz")]) == 0
        out = capsys.readouterr().out
        assert "riscv" in out

    def test_convert_rejects_corrupt_input(self, trace_store, tmp_path, capsys):
        bad = tmp_path / "bad.cvp"
        bad.write_bytes(b"\xff" * 40)
        assert main(["ingest", "convert", str(bad), "--name", "nope"]) == 1
        assert not is_ingested("nope")

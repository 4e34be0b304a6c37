"""Smoke-mode wiring of the perf harness into the tier-1 suite.

``REPRO_BENCH_SMOKE=1`` makes :func:`repro.bench.run_perf_suite` cheap
enough to run here; the full-size timings (and the speedup floors they
must clear) live in ``benchmarks/bench_perf.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import is_smoke_mode, run_perf_suite
from repro.bench.perf import SMOKE_ENV, SMOKE_SNAPSHOTS


@pytest.fixture
def smoke_env(monkeypatch):
    monkeypatch.setenv(SMOKE_ENV, "1")


class TestSmokeMode:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        assert not is_smoke_mode()
        monkeypatch.setenv(SMOKE_ENV, "1")
        assert is_smoke_mode()
        monkeypatch.setenv(SMOKE_ENV, "0")
        assert not is_smoke_mode()

    def test_smoke_suite_runs_and_writes(self, smoke_env, dataset, tmp_path):
        output = tmp_path / "BENCH_ordination.json"
        suite = run_perf_suite(dataset, workers=2, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert results["snapshots"] == SMOKE_SNAPSHOTS
        assert set(results) == {
            "schema",
            "mode",
            "snapshots",
            "distance",
            "mds",
            "intern",
            "scrape",
        }

        # Correctness gate: parallel == serial.
        assert results["scrape"]["identical"] is True
        # Interning must actually dedup: the dataset repeats roots
        # across snapshots, so occurrences exceed unique DERs.
        assert results["intern"]["unique"] < results["intern"]["certificates"]
        assert results["intern"]["hit_rate"] > 0.0
        # Timings exist and are positive — no speedup floors in smoke
        # mode, where the inputs are too small for stable ratios.
        for section, key in (
            ("distance", "vectorized_s"),
            ("mds", "smacof_s"),
            ("intern", "fresh_s"),
            ("intern", "interned_s"),
            ("scrape", "serial_s"),
            ("scrape", "parallel_s"),
        ):
            assert results[section][key] > 0.0

        on_disk = json.loads(output.read_text())
        assert on_disk == results
        assert suite.output_path == output

    def test_summary_lines_render(self, smoke_env, dataset):
        suite = run_perf_suite(dataset, workers=2)
        lines = suite.summary_lines()
        assert any("smoke" in line for line in lines)
        assert any("vectorized" in line for line in lines)
        assert suite.output_path is None

    def test_explicit_smoke_overrides_env(self, monkeypatch, dataset):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        suite = run_perf_suite(dataset, smoke=True, workers=2)
        assert suite.results["mode"] == "smoke"

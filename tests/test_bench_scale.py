"""Smoke-mode wiring of the scale harness into the tier-1 suite.

``REPRO_BENCH_SMOKE=1`` makes :func:`repro.bench.run_scale_suite`
cheap enough to run here (3 synthetic providers, no base corpus in
the ingest, trimmed analysis corpus); the full-size population and
the floors it must clear live in ``benchmarks/bench_scale.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import run_scale_suite
from repro.bench.perf import SMOKE_ENV
from repro.bench.scale import SMOKE_LANDMARKS, SMOKE_PROVIDERS


@pytest.fixture
def smoke_env(monkeypatch):
    monkeypatch.setenv(SMOKE_ENV, "1")


class TestSmokeMode:
    def test_smoke_suite_runs_and_writes(self, smoke_env, tmp_path):
        output = tmp_path / "BENCH_scale.json"
        suite = run_scale_suite(output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "target_snapshots",
            "population",
            "ingest",
            "memory",
            "landmark_mds",
        }

        population = results["population"]
        assert population["providers"] == SMOKE_PROVIDERS
        assert population["synthetic_snapshots"] > 0
        assert population["total_snapshots"] == population["synthetic_snapshots"]

        # The whole population survives the archive round trip.
        ingest = results["ingest"]
        assert ingest["round_trip_complete"] is True
        assert ingest["snapshots_added"] == population["total_snapshots"]
        assert ingest["providers"] == SMOKE_PROVIDERS

        memory = results["memory"]
        assert memory["incidence_bytes"] == memory["snapshots"] * memory["universe"]
        assert memory["incidence_build_peak_bytes"] > 0
        assert (
            memory["distance_output_bytes"] == memory["snapshots"] ** 2 * 8
        )
        assert memory["distance_peak_bytes"] >= memory["distance_output_bytes"]

        mds = results["landmark_mds"]
        assert mds["landmarks"] == SMOKE_LANDMARKS
        assert 0.0 <= mds["landmark_stress1"] < 1.0
        assert 0.0 <= mds["full_stress1"] < 1.0

        # Timings exist and are positive — no speedup floors in smoke
        # mode, where the inputs are too small for stable ratios.
        for section, key in (
            ("population", "synthesize_s"),
            ("ingest", "ingest_s"),
            ("landmark_mds", "full_s"),
            ("landmark_mds", "landmark_s"),
        ):
            assert results[section][key] > 0.0

        on_disk = json.loads(output.read_text())
        assert on_disk == results
        assert suite.output_path == output

    def test_summary_lines_render(self, smoke_env):
        suite = run_scale_suite()
        lines = suite.summary_lines()
        assert any("smoke" in line for line in lines)
        assert any("distance overhead" in line for line in lines)
        assert any("landmark mds" in line for line in lines)
        assert suite.output_path is None

    def test_explicit_smoke_overrides_env(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        suite = run_scale_suite(smoke=True)
        assert suite.results["mode"] == "smoke"

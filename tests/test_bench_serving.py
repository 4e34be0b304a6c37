"""Smoke-mode wiring of the serving benchmark into tier-1.

``REPRO_BENCH_SMOKE=1`` trims :func:`repro.bench.run_serving_suite` to
the two-provider sub-corpus and a short concurrency ladder; the
full-size run — and the committed floors (≥ 10x header-open cold
start over the full decode, daemon p50 within 5x of warm in-process) —
lives in ``benchmarks/bench_serving.py``.  The ladder must report
p50/p99 at ≥ 3 concurrency levels; query equivalence is gated in
``tests/test_serving.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import run_serving_suite
from repro.bench.perf import SMOKE_ENV
from repro.bench.serving import CONCURRENCY_LEVELS, MAX_DAEMON_OVERHEAD, MIN_COLD_SPEEDUP


@pytest.fixture
def smoke_env(monkeypatch):
    monkeypatch.setenv(SMOKE_ENV, "1")
    monkeypatch.setenv("REPRO_ARCHIVE_FSYNC", "0")


class TestServingSmoke:
    def test_smoke_suite_runs_and_writes(self, smoke_env, dataset, tmp_path):
        output = tmp_path / "BENCH_serving.json"
        suite = run_serving_suite(dataset, output=output)

        results = suite.results
        assert results["mode"] == "smoke"
        assert set(results) == {
            "schema",
            "mode",
            "providers",
            "snapshots",
            "fingerprints",
            "cold_start",
            "warm",
            "daemon",
        }

        cold = results["cold_start"]
        assert set(cold) == {"decode_s", "binary_s", "speedup", "floor"}
        assert cold["decode_s"] > 0 and cold["binary_s"] > 0

        # The acceptance shape: p50/p99 at ≥ 3 concurrency levels.
        levels = results["daemon"]["levels"]
        assert len(levels) >= 3
        assert [level["concurrency"] for level in levels] == list(CONCURRENCY_LEVELS)
        for level in levels:
            assert level["p50_ms"] > 0
            assert level["p99_ms"] >= level["p50_ms"]
            assert level["requests"] > 0

        assert results["cold_start"]["floor"]["min_speedup"] == MIN_COLD_SPEEDUP
        assert (
            results["daemon"]["overhead"]["floor"]["max_ratio"] == MAX_DAEMON_OVERHEAD
        )
        assert results["daemon"]["startup_s"] > 0

        payload = json.loads(output.read_text())
        assert payload == results

        lines = "\n".join(suite.summary_lines())
        assert "cold start" in lines and "daemon overhead" in lines

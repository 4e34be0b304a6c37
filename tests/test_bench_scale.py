"""The scale bench suite honours an explicit smoke choice.

The suite's smoke run, gates and summary are checked with every other
suite in ``tests/test_bench.py``; the full-size run lives in
``benchmarks/bench_suites.py``.
"""

from __future__ import annotations

from repro.bench import SUITES
from repro.bench.runner import SMOKE_ENV, run_suite


class TestSmokeMode:
    def test_explicit_smoke_overrides_env(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        results = run_suite(SUITES["scale"], smoke=True)
        assert results["mode"] == "smoke"

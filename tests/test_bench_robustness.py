"""The robustness bench suite honours an explicit smoke choice.

The suite's smoke run, gates and summary are checked with every other
suite in ``tests/test_bench.py``; the full-size run lives in
``benchmarks/bench_suites.py``.
"""

from __future__ import annotations

import pytest

from repro.archive import set_fsync
from repro.bench import SUITES
from repro.bench.runner import SMOKE_ENV, run_suite

pytestmark = pytest.mark.chaos  # crashes writers, kills workers


class TestRobustnessSmoke:
    def test_explicit_smoke_overrides_env(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        previous = set_fsync(False)  # smoke archives are throwaway
        try:
            results = run_suite(SUITES["robustness"], smoke=True)
        finally:
            set_fsync(previous)
        assert results["mode"] == "smoke"

"""The ordination bench suite honours an explicit smoke choice.

``REPRO_BENCH_SMOKE=1`` trims every suite to tiny inputs; an explicit
``smoke=`` argument wins over the environment (resolution itself is
checked in ``tests/test_bench.py``, with every suite's smoke run,
gates and summary).
"""

from __future__ import annotations

from repro.bench import SUITES
from repro.bench.runner import SMOKE_ENV, run_suite


class TestSmokeMode:
    def test_explicit_smoke_overrides_env(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        results = run_suite(SUITES["ordination"], smoke=True)
        assert results["mode"] == "smoke"

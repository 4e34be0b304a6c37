"""Smoke-mode resolution, and the ordination bench suite honouring it.

``REPRO_BENCH_SMOKE=1`` trims every suite to tiny inputs; an explicit
``smoke=`` argument wins over the environment.  The ordination suite's
smoke run, gates and summary are checked with every other suite in
``tests/test_bench.py``.
"""

from __future__ import annotations

from repro.bench import SUITES
from repro.bench.runner import SMOKE_ENV, is_smoke, run_suite


class TestSmokeMode:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        assert not is_smoke()
        monkeypatch.setenv(SMOKE_ENV, "1")
        assert is_smoke()
        monkeypatch.setenv(SMOKE_ENV, "0")
        assert not is_smoke()

    def test_explicit_smoke_overrides_env(self, monkeypatch):
        monkeypatch.delenv(SMOKE_ENV, raising=False)
        results = run_suite(SUITES["ordination"], smoke=True)
        assert results["mode"] == "smoke"

"""Every declared bench suite, smoke-run once through the runner.

The full-size runs and their timing floors live in
``benchmarks/bench_suites.py``; here each suite's smoke run must write
exactly the results it returns, keep its correctness gates, render,
and keep the section layout of its committed ``BENCH_*.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.archive import set_fsync
from repro.bench import SUITES
from repro.bench.runner import SMOKE_ENV, is_smoke, resolve, run_suite, summary_lines

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(
    scope="module",
    params=[
        # The robustness suite crashes writers and kills workers.
        pytest.param(name, marks=pytest.mark.chaos) if name == "robustness" else name
        for name in SUITES
    ],
)
def smoke_run(request, tmp_path_factory):
    suite = SUITES[request.param]
    output_dir = tmp_path_factory.mktemp(suite.name)
    previous = set_fsync(False)  # smoke archives are throwaway
    try:
        results = run_suite(suite, smoke=True, output_dir=output_dir)
    finally:
        set_fsync(previous)
    return suite, results, output_dir / suite.output


def test_written_json_equals_results(smoke_run):
    _, results, written = smoke_run
    assert results["mode"] == "smoke"
    assert json.loads(written.read_text()) == results


def test_every_floor_path_resolves(smoke_run):
    suite, results, _ = smoke_run
    for floor in suite.floors:
        resolve(results, floor.path)


def test_always_gates_hold(smoke_run):
    suite, results, _ = smoke_run
    for floor in suite.floors:
        if floor.always:
            assert floor.holds(results), f"{suite.name}: {floor} broke"


def test_summary_renders(smoke_run):
    suite, results, _ = smoke_run
    text = "\n".join(summary_lines(suite, results))
    assert "mode" in text and "smoke" in text
    assert all(f"floor {floor}" in text for floor in suite.floors)


def test_sections_match_committed(smoke_run):
    suite, results, _ = smoke_run
    committed = json.loads((REPO / suite.output).read_text())
    assert list(results) == list(committed)


def test_explicit_full_overrides_env(monkeypatch):
    # The env toggle and explicit smoke=True are checked in test_bench_perf.py.
    monkeypatch.setenv(SMOKE_ENV, "1")
    assert not is_smoke(False)

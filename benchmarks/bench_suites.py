"""Every declared bench suite at full size, with every floor enforced.

Runs each suite in :data:`repro.bench.SUITES` through
:func:`repro.bench.runner.run_suite` and fails on any floor the runner
reports broken.  Correctness gates (``always`` floors) hold in every
mode; timing floors only in full mode — ``REPRO_BENCH_SMOKE=1`` stops
at the gates.  The committed ``BENCH_*.json`` files are the records;
regenerate one with ``repro-roots bench SUITE``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.bench import SUITES
from repro.bench.runner import broken_floors, run_suite, summary_lines


@pytest.mark.parametrize("name", list(SUITES))
def test_suite(name, benchmark, capsys, tmp_path):
    suite = SUITES[name]
    results = benchmark.pedantic(
        run_suite, args=(suite,), kwargs={"output_dir": tmp_path}, rounds=1, iterations=1
    )

    emit(capsys, "\n".join(summary_lines(suite, results)))

    assert (tmp_path / suite.output).exists()
    broken = broken_floors(suite, results)
    assert not broken, f"{name}: broken floors: {', '.join(map(str, broken))}"

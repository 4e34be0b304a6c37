"""Scale-regression harness — the full-size run behind ``repro-roots bench-scale``.

Runs :func:`repro.bench.run_scale_suite` end-to-end (population →
ingest → memory → landmark MDS) and enforces the floors the 10–100×
scale work claims:

- the synthetic population clears ≥5k snapshots and survives a full
  archive round trip (every synthesized snapshot archived),
- at population scale the tiled full-matrix kernel's peak allocation
  beyond its (n, n) output is at most an eighth of the output,
- landmark MDS beats iteration-matched full SMACOF by ≥10× while
  staying within 0.15 stress-1 of it on the full matrix.

The kernel's exactness against the per-pair oracle is asserted by the
tier-1 tests (``tests/test_analysis_sparse.py``).  The complete round
trip is enforced unconditionally.  ``BENCH_scale.json`` is the committed
record; regenerate it with ``repro-roots bench-scale`` after changes
to the distance kernel, population, or ordination layers.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.bench import is_smoke_mode, run_scale_suite
from repro.bench.scale import FULL_TARGET_SNAPSHOTS


def test_scale_suite(benchmark, capsys, tmp_path):
    output = tmp_path / "BENCH_scale.json"
    suite = benchmark.pedantic(
        run_scale_suite,
        kwargs={"output": output},
        rounds=1,
        iterations=1,
    )
    results = suite.results

    emit(capsys, "\n".join(suite.summary_lines()))

    # Correctness gates hold in every mode.
    assert results["ingest"]["round_trip_complete"] is True
    assert results["landmark_mds"]["landmark_stress1"] < 1.0
    assert output.exists()

    if is_smoke_mode():
        return  # tiny inputs: timing ratios are noise, stop at correctness

    population, ingest = results["population"], results["ingest"]
    memory, mds = results["memory"], results["landmark_mds"]

    assert population["total_snapshots"] >= FULL_TARGET_SNAPSHOTS, (
        "synthetic population fell below the scale target: "
        f"{population['total_snapshots']} < {FULL_TARGET_SNAPSHOTS}"
    )
    assert ingest["archived_snapshots"] >= FULL_TARGET_SNAPSHOTS, (
        "archive round trip lost snapshots at scale: "
        f"{ingest['archived_snapshots']} archived"
    )
    assert memory["overhead_share"] <= 1 / 8, (
        "tiled distance kernel's peak beyond its output exceeded an eighth "
        f"of the output: {memory['overhead_share']:.3f}"
    )
    assert mds["speedup"] >= 10.0, (
        "landmark MDS lost its >=10x margin over iteration-matched full "
        f"SMACOF: {mds['speedup']:.1f}x"
    )
    assert mds["stress1_excess"] <= 0.15, (
        "landmark embedding drifted out of stress tolerance: "
        f"stress1 excess {mds['stress1_excess']:+.4f} over full SMACOF"
    )

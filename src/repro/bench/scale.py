"""Scale benchmarks — the numbers behind ``BENCH_scale.json``.

ROADMAP item 1: grow the corpus 10–100× (synthetic derivative
populations) and keep the analysis substrate alive out-of-core.  This
suite measures — and ``benchmarks/bench_scale.py`` floors — the three
claims that make that real:

- **population + ingest**: synthesize a ≥5k-snapshot derivative
  population deterministically (no new certificate minting) and ingest
  it into a fresh archive end-to-end.
- **memory**: at population scale, the bool incidence matrix's bytes
  and build peak, and the tiled full-matrix kernel's peak allocation
  beyond its (n, n) output, which must stay at most an eighth of the
  output (tracemalloc-measured).  The kernel's exactness against the
  per-pair oracle is a tier-1 test, not a bench section.
- **landmark MDS**: the k-landmark embed + triangulate pipeline must
  beat iteration-matched full SMACOF by ≥10× at population scale while
  staying within stress tolerance of it on the full-matrix Kruskal
  stress-1.

Wall clock is the measurand (this is the bench layer, exempt from the
no-wall-clock rule) and ``REPRO_BENCH_SMOKE=1`` shrinks everything to
ride inside tier-1.
"""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.analysis.incidence import (
    TILE_ROWS,
    build_incidence,
    cross_distances,
    jaccard_distances,
    maxmin_landmarks,
)
from repro.analysis.mds import kruskal_stress, landmark_mds, smacof
from repro.archive import Archive, ArchiveQuery, ingest_dataset
from repro.archive.io import set_fsync
from repro.bench.perf import _timed, is_smoke_mode
from repro.simulation import (
    PopulationSpec,
    default_corpus,
    synthesize_population,
)
from repro.store.history import Dataset

#: Snapshot floor the full-mode population must clear end-to-end.
FULL_TARGET_SNAPSHOTS = 5000
#: Synthetic providers in full mode (empirically ~25 snapshots each, so
#: this clears the target with margin while staying deterministic).
FULL_PROVIDERS = 260
#: Synthetic providers in smoke mode.
SMOKE_PROVIDERS = 3
#: Landmark count for the full-mode ordination comparison.
FULL_LANDMARKS = 96
#: Iteration cap shared by both SMACOF runs so the ≥10× landmark claim
#: is iteration-matched, not an artifact of differing convergence.
FULL_MDS_ITERATIONS = 48
SMOKE_LANDMARKS = 8
SMOKE_MDS_ITERATIONS = 12


@dataclass(frozen=True)
class ScaleSuite:
    """One run of the scale harness: results plus output location."""

    results: dict
    output_path: Path | None

    def summary_lines(self) -> list[str]:
        r = self.results
        pop, ing = r["population"], r["ingest"]
        mem, mds = r["memory"], r["landmark_mds"]
        return [
            f"mode                : {r['mode']}",
            f"population          : {pop['synthesize_s']:.2f} s "
            f"({pop['providers']} synthetic providers, "
            f"{pop['total_snapshots']} snapshots total)",
            f"ingest              : {ing['ingest_s']:.2f} s "
            f"({ing['snapshots_added']} snapshots, "
            f"{ing['manifests_written']} manifests, "
            f"archived={ing['archived_snapshots']})",
            f"bool incidence      : {mem['incidence_bytes'] / 1e6:.2f} MB "
            f"({mem['snapshots']} x {mem['universe']}), build peak "
            f"{mem['incidence_build_peak_bytes'] / 1e6:.1f} MB",
            f"distance overhead   : {mem['distance_overhead_bytes'] / 1e6:.1f} MB "
            f"beyond the {mem['distance_output_bytes'] / 1e6:.1f} MB output "
            f"({mem['overhead_share']:.3f} of it, {mem['tile_rows']}-row tiles)",
            f"full smacof         : {mds['full_s']:.2f} s "
            f"({mds['points']} points, {mds['iterations']} iteration cap, "
            f"stress1 {mds['full_stress1']:.4f})",
            f"landmark mds        : {mds['landmark_s']:.2f} s "
            f"({mds['landmarks']} landmarks, {mds['speedup']:.1f}x, "
            f"stress1 {mds['landmark_stress1']:.4f}, "
            f"excess {mds['stress1_excess']:+.4f})",
        ]


def _tracemalloc_peak(fn: Callable[[], object]) -> tuple[int, object]:
    """Peak bytes allocated (python-side) while running ``fn``."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, value


def _bench_population(
    corpus, *, providers: int, rounds: int, include_base: bool = True
) -> tuple[Dataset, dict]:
    spec = PopulationSpec(providers=providers)
    synthesize_s, dataset = _timed(
        lambda: synthesize_population(corpus, spec, include_base=include_base),
        rounds=rounds,
        suite="scale",
        section="population_synthesize",
    )
    return dataset, {
        "providers": providers,
        "seed": spec.seed,
        "synthesize_s": synthesize_s,
        "base_snapshots": corpus.dataset.total_snapshots(),
        "total_snapshots": dataset.total_snapshots(),
        "synthetic_snapshots": dataset.total_snapshots()
        - (corpus.dataset.total_snapshots() if include_base else 0),
    }


def _bench_ingest(root: Path, dataset: Dataset) -> tuple[ArchiveQuery, dict]:
    archive = Archive(root / "scale-archive", create=True)
    previous = set_fsync(False)  # measure ingest work, not disk sync policy
    try:
        ingest_s, report = _timed(
            lambda: ingest_dataset(archive, dataset),
            rounds=1,
            suite="scale",
            section="ingest",
        )
    finally:
        set_fsync(previous)
    query = ArchiveQuery(archive)
    archived = sum(
        len(query.index.timeline(provider)) for provider in query.providers
    )
    return query, {
        "ingest_s": ingest_s,
        "snapshots_seen": report.snapshots_seen,
        "snapshots_added": report.snapshots_added,
        "objects_written": report.objects_written,
        "manifests_written": report.manifests_written,
        "providers": len(report.providers),
        "archived_snapshots": archived,
        "round_trip_complete": archived == dataset.total_snapshots(),
    }


def _bench_memory(dataset: Dataset) -> dict:
    """Peak-allocation accounting at population scale (tracemalloc)."""
    snapshots = dataset.all_snapshots()
    n = len(snapshots)
    build_peak, incidence = _tracemalloc_peak(lambda: build_incidence(snapshots))
    output_bytes = n * n * 8
    distance_peak, _ = _tracemalloc_peak(lambda: jaccard_distances(incidence))
    overhead = max(0, distance_peak - output_bytes)
    return {
        "snapshots": n,
        "universe": len(incidence.fingerprints),
        "incidence_bytes": int(incidence.matrix.nbytes),
        "incidence_build_peak_bytes": int(build_peak),
        "tile_rows": TILE_ROWS,
        "distance_output_bytes": output_bytes,
        "distance_peak_bytes": int(distance_peak),
        "distance_overhead_bytes": int(overhead),
        "overhead_share": overhead / output_bytes,
    }


def _bench_landmark_mds(
    dataset: Dataset, *, landmarks: int, max_iterations: int
) -> dict:
    """Landmark embed+triangulate vs iteration-matched full SMACOF."""
    incidence = build_incidence(dataset.all_snapshots())
    full_matrix = jaccard_distances(incidence)

    full_s, full_result = _timed(
        lambda: smacof(full_matrix, dims=2, max_iterations=max_iterations),
        rounds=1,
        suite="scale",
        section="mds_full",
    )

    def landmark_pipeline():
        picked = maxmin_landmarks(incidence, landmarks)
        cross = cross_distances(incidence, picked)
        return landmark_mds(
            cross, picked, dims=2, max_iterations=max_iterations
        )

    landmark_s, landmark_result = _timed(
        lambda: landmark_pipeline(),
        rounds=1,
        suite="scale",
        section="mds_landmark",
    )
    # Quality on equal footing: full-matrix Kruskal stress-1 of both
    # embeddings against the same dissimilarities.
    full_stress1 = kruskal_stress(full_matrix, full_result.embedding)
    landmark_stress1 = kruskal_stress(full_matrix, landmark_result.embedding)
    return {
        "points": incidence.n_rows,
        "landmarks": landmarks,
        "iterations": max_iterations,
        "full_s": full_s,
        "landmark_s": landmark_s,
        "speedup": full_s / landmark_s if landmark_s > 0 else float("inf"),
        "full_stress1": full_stress1,
        "landmark_stress1": landmark_stress1,
        "landmark_cross_stress1": landmark_result.cross_stress1,
        "stress1_excess": landmark_stress1 - full_stress1,
    }


def run_scale_suite(
    *,
    smoke: bool | None = None,
    providers: int | None = None,
    landmarks: int | None = None,
    output: Path | str | None = None,
) -> ScaleSuite:
    """Run every section and optionally write ``BENCH_scale.json``.

    ``smoke=None`` reads ``REPRO_BENCH_SMOKE``; smoke mode synthesizes
    a 3-provider tail, runs the same end-to-end path (population →
    ingest → memory → landmark MDS) on it, and leaves the
    floor-checking to full mode.
    """
    if smoke is None:
        smoke = is_smoke_mode()
    if providers is None:
        providers = SMOKE_PROVIDERS if smoke else FULL_PROVIDERS
    if landmarks is None:
        landmarks = SMOKE_LANDMARKS if smoke else FULL_LANDMARKS
    max_iterations = SMOKE_MDS_ITERATIONS if smoke else FULL_MDS_ITERATIONS
    rounds = 1

    corpus = default_corpus()
    dataset, population = _bench_population(
        # Smoke skips the 649 base snapshots so the ingest stays cheap
        # enough to ride inside tier-1; full mode ingests base + tail.
        corpus, providers=providers, rounds=rounds, include_base=not smoke
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        _, ingest = _bench_ingest(Path(tmp), dataset)

    if smoke:
        # A trimmed seeded corpus keeps the smoke analysis sections cheap.
        from repro.store.history import StoreHistory

        mds_dataset = Dataset()
        for provider in corpus.dataset.providers[:3]:
            mds_dataset.add_history(
                StoreHistory(
                    provider, snapshots=list(corpus.dataset[provider].snapshots)[:8]
                )
            )
    else:
        mds_dataset = dataset

    results = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "target_snapshots": 0 if smoke else FULL_TARGET_SNAPSHOTS,
        "population": population,
        "ingest": ingest,
        "memory": _bench_memory(mds_dataset),
        "landmark_mds": _bench_landmark_mds(
            mds_dataset, landmarks=landmarks, max_iterations=max_iterations
        ),
    }

    output_path = Path(output) if output is not None else None
    if output_path is not None:
        output_path.write_text(json.dumps(results, indent=2) + "\n")
    return ScaleSuite(results=results, output_path=output_path)

"""The ``scale`` suite — population-scale numbers behind ``BENCH_scale.json``.

Grow the corpus 10–100× (synthetic derivative populations) and keep
the analysis substrate alive out-of-core.  The suite measures the
three claims that make that real:

- **population + ingest**: synthesize a ≥5k-snapshot derivative
  population deterministically from the default corpus (no new
  certificate minting) and ingest it into a fresh archive end-to-end.
- **memory**: at population scale, the bool incidence matrix's bytes
  and build peak, and the tiled full-matrix kernel's peak allocation
  beyond its (n, n) output, which must stay at most an eighth of the
  output (tracemalloc-measured).  The kernel's exactness against the
  per-pair oracle is a tier-1 test, not a bench section.
- **landmark MDS**: the k-landmark embed + triangulate pipeline must
  beat iteration-matched full SMACOF by ≥10× at population scale while
  staying within stress tolerance of it on the full-matrix Kruskal
  stress-1.

Smoke mode synthesizes a 3-provider tail without the base corpus and
runs the analysis sections on a trimmed seeded corpus."""

from __future__ import annotations

import tempfile
import tracemalloc
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
from repro.bench.runner import Floor, Suite, smoke_dataset, timed
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
    corpus, *, providers: int, include_base: bool
) -> tuple[Dataset, dict]:
    spec = PopulationSpec(providers=providers)
    synthesize_s, dataset = timed(
        lambda: synthesize_population(corpus, spec, include_base=include_base)
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
        ingest_s, report = timed(lambda: ingest_dataset(archive, dataset))
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

    full_s, full_result = timed(
        lambda: smacof(full_matrix, dims=2, max_iterations=max_iterations)
    )

    def landmark_pipeline():
        picked = maxmin_landmarks(incidence, landmarks)
        cross = cross_distances(incidence, picked)
        return landmark_mds(
            cross, picked, dims=2, max_iterations=max_iterations
        )

    landmark_s, landmark_result = timed(landmark_pipeline)
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


def run(dataset: Dataset, smoke: bool) -> dict:
    """``dataset`` is unused: the population grows from the default corpus."""
    corpus = default_corpus()
    dataset, population = _bench_population(
        # Smoke skips the 649 base snapshots so the ingest stays cheap
        # enough to ride inside tier-1; full mode ingests base + tail.
        corpus,
        providers=SMOKE_PROVIDERS if smoke else FULL_PROVIDERS,
        include_base=not smoke,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        _, ingest = _bench_ingest(Path(tmp), dataset)

    # A trimmed seeded corpus keeps the smoke analysis sections cheap.
    mds_dataset = (
        smoke_dataset(corpus.dataset, providers=3, snapshots=8) if smoke else dataset
    )
    return {
        "target_snapshots": 0 if smoke else FULL_TARGET_SNAPSHOTS,
        "population": population,
        "ingest": ingest,
        "memory": _bench_memory(mds_dataset),
        "landmark_mds": _bench_landmark_mds(
            mds_dataset,
            landmarks=SMOKE_LANDMARKS if smoke else FULL_LANDMARKS,
            max_iterations=SMOKE_MDS_ITERATIONS if smoke else FULL_MDS_ITERATIONS,
        ),
    }


SUITE = Suite(
    name="scale",
    output="BENCH_scale.json",
    run=run,
    floors=(
        Floor("ingest.round_trip_complete", always=True),
        Floor("landmark_mds.landmark_stress1", "<", 1.0, always=True),
        Floor("population.total_snapshots", ">=", FULL_TARGET_SNAPSHOTS),
        Floor("ingest.archived_snapshots", ">=", FULL_TARGET_SNAPSHOTS),
        Floor("memory.overhead_share", "<=", 1 / 8),
        Floor("landmark_mds.speedup", ">=", 10.0),
        Floor("landmark_mds.stress1_excess", "<=", 0.15),
    ),
)

"""ordination: archive-backed landmark ordination and the paper's Figure 1.

Set-up synthesizes the paper corpus plus a seeded synthetic derivative
population and ingests it with fsync off.  Seed 0 is the repo's default
population, ``PopulationSpec(providers=80)`` (3,424 snapshots in all);
any other seed derives a different population and keeps adding its
providers until it holds at least as many snapshots, so every seed does
the same amount of work.

Each pass runs in a fresh child process, which opens a fresh
``ArchiveQuery`` and runs two ordinations:

- landmark ordination over every snapshot: ``incidence(sparse=True)`` →
  ``maxmin_landmarks(96)`` → ``cross_distances`` → ``landmark_mds``;
- Figure 1 over the paper's 10 providers: ``distance_matrix`` → full
  ``smacof``.

The manifests outnumber the 1,024-entry manifest LRU three times over,
so each pass reads the archive as a cold bulk scan.  The child's
``ru_maxrss`` is the pass's peak memory, with set-up excluded.

Checks: landmark indices, iteration counts and a digest of the Figure-1
embedding are identical across passes (and, through the count record,
across runs of one seed); landmark stress-1 is recorded.

Run as a script (``--pass DIR``) this module is the child.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

from common import PAPER_PROVIDERS, ROOT, SRC, Result, digest, median, percentile
from layers import layer_metrics
from tracer import Tracer

from repro.analysis.mds import landmark_mds, smacof
from repro.analysis.sparse import cross_distances, maxmin_landmarks
from repro.archive import Archive, ArchiveQuery, ingest_dataset
from repro.archive.io import set_fsync
from repro.archive.query import MANIFEST_CACHE_SIZE
from repro.simulation import PopulationSpec, synthesize_population
from repro.simulation.population import synthesize_policies
from repro.simulation.corpus import generate_corpus
from repro.store.history import Dataset

HERE = Path(__file__).resolve().parent

LANDMARKS = 96
POPULATION_PROVIDERS = 80
POPULATION_SEED = "repro-population-v1"
#: Snapshots the default population holds; other seeds grow to match.
TARGET_SNAPSHOTS = 3424
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

DESCRIPTION = {
    "loop": "closed, one pass at a time, each in a fresh child process",
    "connections": 0,
    "threads": 1,
    "flush": "fsync off while the archive is built; passes only read",
}

LAYERS = (
    "archive.query.open_s", "archive.index.load_s", "archive.query.incidence_s",
    "archive.manifest.read_us", "archive.manifest.reads", "archive.query.manifest_hit_rate",
    "analysis.sparse.landmarks_s", "analysis.sparse.cross_distances_s",
    "analysis.mds.landmark_mds_s", "analysis.mds.landmark_iterations",
    "analysis.mds.landmark_stress1", "archive.query.distance_matrix_s",
    "analysis.incidence.jaccard_s", "analysis.mds.smacof_s", "analysis.mds.smacof_iterations",
    "trace.overhead_ratio", "trace.coverage_share", "trace.untraced_share",
)

ROOTS = ("ordination.landmark", "ordination.figure1")


def population(corpus, seed: int) -> Dataset:
    """The seeded corpus + synthetic population, sized to the default's."""
    if seed == 0:
        return synthesize_population(corpus, PopulationSpec(providers=POPULATION_PROVIDERS))
    spec = PopulationSpec(providers=POPULATION_PROVIDERS * 2, seed=f"{POPULATION_SEED}/{seed}")
    grown = synthesize_population(corpus, spec)
    dataset = Dataset()
    for provider in corpus.dataset.providers:
        dataset.add_history(corpus.dataset[provider])
    for policy in synthesize_policies(spec):
        if dataset.total_snapshots() >= TARGET_SNAPSHOTS:
            break
        dataset.add_history(grown[policy.key])
    return dataset


def one_pass(root: Path, trace: bool) -> dict:
    """Both ordinations over a freshly opened archive (the child's work)."""
    tracer = Tracer()
    with tracer.installed(trace):
        began = time.perf_counter()
        with tracer.span("ordination.landmark"):
            query = ArchiveQuery(root)
            incidence = query.incidence(sparse=True)
            landmarks = maxmin_landmarks(incidence, LANDMARKS)
            cross = cross_distances(incidence, landmarks)
            embedding = landmark_mds(cross, landmarks)
        middle = time.perf_counter()
        with tracer.span("ordination.figure1"):
            distances = query.distance_matrix(providers=list(PAPER_PROVIDERS))
            figure1 = smacof(distances.matrix)
        ended = time.perf_counter()
    return {
        "landmark_s": middle - began,
        "figure1_s": ended - middle,
        "snapshots": incidence.n_rows,
        "catalog_hash": query.catalog_hash,
        "landmarks": list(landmarks),
        "landmark_iterations": embedding.landmark_result.iterations,
        "landmark_stress1": embedding.cross_stress1,
        "smacof_iterations": figure1.iterations,
        "figure1_digest": sha256(figure1.embedding.tobytes()).hexdigest(),
        "manifest_hit_rate": query.cache_stats()["manifest"].hit_rate,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.export() if trace else None,
    }


def _child(root: Path, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--pass", str(root),
         "--trace", str(int(trace))],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"ordination pass failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.splitlines()[-1])


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    result = Result()
    start = time.perf_counter()
    corpus = generate_corpus()
    dataset = population(corpus, seed)
    archive = Archive(workdir / "population", create=True)
    previous = set_fsync(False)
    try:
        ingest_dataset(archive, dataset)
    finally:
        set_fsync(previous)
    setup_s = time.perf_counter() - start
    snapshots = dataset.total_snapshots()
    result.notes.append(
        f"corpus: {snapshots} snapshots, {len(dataset.providers)} providers = "
        f"{snapshots / MANIFEST_CACHE_SIZE:.2f}x the {MANIFEST_CACHE_SIZE}-entry manifest LRU"
    )
    del corpus, dataset  # the passes run in children; keep this process small

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or (trace and not traced) or time.perf_counter() < deadline:
        want_trace = trace and len(traced) < len(plain)
        result.attempted += 1
        try:
            outcome = _child(archive.root, want_trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            result.failed += 1
            result.notes.append(str(exc))
            if result.failed > 1:
                break
            continue
        (traced if want_trace else plain).append(outcome)
    result.notes.append(
        f"phases: setup {setup_s:.1f} s, passes {time.perf_counter() - start - setup_s:.1f} s"
    )

    passes = plain + traced
    first = passes[0]
    stable = ("landmarks", "landmark_iterations", "smacof_iterations", "figure1_digest",
              "landmark_stress1", "snapshots", "catalog_hash")
    result.check(
        f"{len(passes)} passes agree on landmarks, iterations and the Figure-1 digest",
        all(p[key] == first[key] for p in passes for key in stable),
    )
    result.check("every snapshot ordinated", first["snapshots"] == snapshots)
    result.check("catalog hash == archive", first["catalog_hash"] == archive.catalog_hash())

    landmark = [p["landmark_s"] for p in plain]
    figure1 = [p["figure1_s"] for p in plain]
    rss = [p["maxrss_mb"] for p in plain]
    p50, p90 = median(landmark) * 1e3, percentile(landmark, 0.9) * 1e3
    rate = first["snapshots"] / median(landmark)
    result.end_to_end = {
        "setup_s": setup_s,
        "p50_ms": p50,
        "p90_ms": p90,
        "throughput_per_s": rate,
        "query_p50_ms": median(figure1) * 1e3,
        "memory_mb": median(rss),
    }
    result.line("setup_s", setup_s, "s", 1)
    result.line("failed_share", result.failed / result.attempted, "share", result.attempted)
    result.line("ordination.landmark_s", median(landmark), "s", len(landmark))
    result.line("ordination.landmark_p90_s", p90 / 1e3, "s", len(landmark))
    result.line("ordination.snapshots_per_s", rate, "1/s", len(landmark))
    result.line("ordination.figure1_s", median(figure1), "s", len(figure1))
    result.line("ordination.peak_rss_mb", median(rss), "MB", len(rss))
    result.line("ordination.landmark_stress1", first["landmark_stress1"], "stress1", 1)
    result.counts = {key: first[key] for key in stable}
    result.counts["landmarks"] = digest(first["landmarks"])
    if trace:
        tracer = Tracer()
        for outcome in traced:
            tracer.merge(outcome["trace"]["spans"], outcome["trace"]["counters"])
        overhead = median([p["landmark_s"] + p["figure1_s"] for p in traced]) / median(
            [p["landmark_s"] + p["figure1_s"] for p in plain]
        )
        values, samples = layer_metrics(tracer, ROOTS, overhead)
        values.update(
            {
                "analysis.mds.landmark_iterations": first["landmark_iterations"],
                "analysis.mds.smacof_iterations": first["smacof_iterations"],
                "analysis.mds.landmark_stress1": first["landmark_stress1"],
                "archive.query.manifest_hit_rate": median(
                    [p["manifest_hit_rate"] for p in traced]
                ),
            }
        )
        samples["trace.overhead_ratio"] = len(traced)
        result.layers, result.layer_samples = values, samples
        result.tracer = tracer
        result.counts["manifest_reads"] = tracer.counters["archive.manifest.reads"] // len(traced)
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="one ordination pass (benchmark child)")
    parser.add_argument("--pass", dest="root", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(one_pass(args.root, bool(args.trace))))

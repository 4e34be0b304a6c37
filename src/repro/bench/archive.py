"""The ``archive`` suite — ingest/read numbers behind ``BENCH_archive.json``.

The archive's reason to exist is replacing full-corpus rebuilds with
indexed disk reads, so the suite times both sides of that trade:

- **ingest**: cold ingest of the dataset into a fresh archive, then a
  re-ingest of the identical corpus (which must be byte-idempotent:
  zero new objects/manifests, unchanged catalog hash).
- **query**: a batch of point-in-time trust lookups, cold (fresh
  engine, untouched caches) vs. warm (same engine, LRU-served) — the
  workload the ROADMAP's serving goal cares about.
- **reconstruct**: rebuilding every archived snapshot into full
  :class:`RootStoreSnapshot` objects, cold vs. warm, with an equality
  check against the live dataset.
- **scrape_analyze**: the path the archive replaces — publish + scrape
  every provider and compute the distance matrix from scratch.  The
  warm query batch must beat this by ≥ 10x.
- **distance**: the archive-backed distance matrix vs. the live one
  (must agree element-wise) and what it costs from manifests alone.
- **verify**: the full integrity pass, which must report a healthy
  archive.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.jaccard import collect_snapshots, distance_matrix
from repro.archive import Archive, ArchiveQuery, ingest_dataset, verify_archive
from repro.bench.runner import Floor, Suite, smoke_dataset, timed
from repro.collection.publish import publish_history
from repro.collection.scrape import scrape_history
from repro.store.history import Dataset

#: How many (fingerprint, date) probes the query batch issues.
QUERY_BATCH = 16
#: Warm query rounds (best-of); one warm batch is microseconds.
WARM_ROUNDS = 3


def _query_batch(query: ArchiveQuery, size: int) -> list[tuple[str, object]]:
    """A deterministic probe set spread across fingerprints and dates."""
    fingerprints = sorted(query.index.postings)
    dates = sorted(
        entry.taken_at
        for provider in query.index.providers
        for entry in query.index.timeline(provider)
    )
    probes = []
    for k in range(size):
        fp = fingerprints[(k * len(fingerprints)) // size]
        when = dates[(k * len(dates)) // size]
        probes.append((fp, when))
    return probes


def _bench_ingest(archive_root: Path, dataset: Dataset) -> tuple[Archive, dict]:
    archive = Archive(archive_root / "cold", create=True)
    cold_s, report = timed(lambda: ingest_dataset(archive, dataset))
    hash_before = archive.catalog_hash()
    reingest_s, reingest = timed(lambda: ingest_dataset(archive, dataset))
    idempotent = (
        reingest.objects_written == 0
        and reingest.manifests_written == 0
        and archive.catalog_hash() == hash_before
    )
    return archive, {
        "cold_s": cold_s,
        "objects_written": report.objects_written,
        "objects_deduplicated": report.objects_deduplicated,
        "manifests_written": report.manifests_written,
        "reingest_s": reingest_s,
        "idempotent": idempotent,
        "catalog_hash": hash_before,
    }


def _bench_query(archive: Archive) -> tuple[ArchiveQuery, dict]:
    probes = _query_batch(ArchiveQuery(archive), QUERY_BATCH)

    def run(query: ArchiveQuery):
        return [query.trusted_on(fp, when) for fp, when in probes]

    # Cold: a fresh engine per round — index load plus first-touch I/O.
    cold_s, _ = timed(lambda: run(ArchiveQuery(archive)))
    # Warm: one engine, caches populated by a priming pass.
    engine = ArchiveQuery(archive)
    run(engine)
    warm_s, observations = timed(lambda: run(engine), rounds=WARM_ROUNDS)
    return engine, {
        "batch": len(probes),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "per_query_us": warm_s / len(probes) * 1e6,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "answers": sum(len(obs) for obs in observations),
    }


def _bench_scrape_analyze(dataset: Dataset) -> dict:
    """The full no-archive pipeline: re-scrape everything, then analyze."""

    def run():
        collected = Dataset()
        for provider in dataset.providers:
            collected.add_history(
                scrape_history(provider, publish_history(dataset[provider]))
            )
        return distance_matrix(collect_snapshots(collected))

    total_s, _ = timed(run)
    return {"total_s": total_s}


def _bench_reconstruct(archive: Archive, dataset: Dataset) -> dict:
    def run(query: ArchiveQuery) -> Dataset:
        return query.dataset()

    cold_s, _ = timed(lambda: run(ArchiveQuery(archive)))
    engine = ArchiveQuery(archive)
    run(engine)
    warm_s, rebuilt = timed(lambda: run(engine))
    identical = all(
        rebuilt[provider].snapshots == dataset[provider].snapshots
        for provider in dataset.providers
    )
    return {
        "snapshots": rebuilt.total_snapshots(),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "identical": identical,
    }


def _bench_distance(engine: ArchiveQuery, dataset: Dataset) -> dict:
    live = distance_matrix(collect_snapshots(dataset))
    archive_s, archived = timed(engine.distance_matrix)
    return {
        "archive_s": archive_s,
        "max_abs_diff": float(np.abs(archived.matrix - live.matrix).max()),
        "labels_match": archived.labels == live.labels,
    }


def _bench_verify(archive: Archive) -> dict:
    verify_s, report = timed(lambda: verify_archive(archive))
    return {
        "verify_s": verify_s,
        "ok": report.ok,
        "objects_checked": report.objects_checked,
        "manifests_checked": report.manifests_checked,
    }


def run(dataset: Dataset, smoke: bool) -> dict:
    if smoke:
        dataset = smoke_dataset(dataset)
    with tempfile.TemporaryDirectory(prefix="repro-archive-bench-") as tmp:
        archive, ingest = _bench_ingest(Path(tmp), dataset)
        engine, query = _bench_query(archive)
        scrape_analyze = _bench_scrape_analyze(dataset)
        query["speedup_vs_scrape"] = (
            scrape_analyze["total_s"] / query["warm_s"]
            if query["warm_s"] > 0
            else float("inf")
        )
        return {
            "snapshots": dataset.total_snapshots(),
            "providers": len(dataset.providers),
            "ingest": ingest,
            "query": query,
            "scrape_analyze": scrape_analyze,
            "reconstruct": _bench_reconstruct(archive, dataset),
            "distance": _bench_distance(engine, dataset),
            "verify": _bench_verify(archive),
        }


SUITE = Suite(
    name="archive",
    output="BENCH_archive.json",
    run=run,
    floors=(
        Floor("ingest.idempotent", always=True),
        Floor("reconstruct.identical", always=True),
        Floor("distance.max_abs_diff", "<=", 1e-12, always=True),
        Floor("distance.labels_match", always=True),
        Floor("verify.ok", always=True),
        Floor("query.speedup_vs_scrape", ">=", 10.0),
        Floor("query.warm_speedup", ">=", 2.0),
        Floor("reconstruct.warm_speedup", ">=", 2.0),
    ),
)

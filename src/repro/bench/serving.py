"""The ``serving`` suite — the numbers behind ``BENCH_serving.json``.

The serving layer exists for two measurable promises:

- **cold start**: opening ``trust.bin`` is a header read + mmap, not
  the full checksummed decode of the same file — it must win by ≥ 10x.
- **serving overhead**: a batched daemon round trip must stay within
  5x of the same warm in-process ``trusted_on_many`` batch — the
  price of HTTP + JSON + process hop, amortized by batching.

The suite measures both, plus the daemon under a concurrency ladder
(p50/p99 per level, ≥ 3 levels), startup time, and per-worker PSS
(proportional set size via ``/proc``, ``None`` where it is absent), so
the mmap'd ``trust.bin`` and fork-shared pages are split across the
workers instead of counted once per worker.  It only measures: the
equivalence of the mmap-backed query surface with a manifest scan is
gated in ``tests/test_serving.py``."""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.archive import Archive, ingest_dataset
from repro.archive.binindex import read_binary_index, read_verified_index
from repro.archive.query import ArchiveQuery
from repro.bench.runner import Floor, Suite, smoke_dataset, timed
from repro.serving import ServingClient, ServingConfig, ServingDaemon, worker_pss_bytes
from repro.store.history import Dataset

#: The concurrency ladder (≥ 3 levels).
CONCURRENCY_LEVELS = (1, 2, 4)
#: Pre-forked daemon workers for the load section.
WORKERS = 2
#: Best-of rounds for each cold-start side.
COLD_ROUNDS = 5


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    k = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[k]


def _probe_space(query: ArchiveQuery) -> tuple[list[str], list]:
    """Every fingerprint and every distinct release date in the archive."""
    fingerprints = sorted(query.index.postings)
    dates = sorted(
        {
            entry.taken_at
            for timeline in query.index.timelines.values()
            for entry in timeline
        }
    )
    return fingerprints, dates


def _bench_cold_start(archive: Archive) -> dict:
    """Full checksummed decode vs. header open of ``trust.bin``."""
    catalog_hash = archive.catalog_hash()
    decode_s, decoded = timed(
        lambda: read_verified_index(archive, catalog_hash), rounds=COLD_ROUNDS
    )
    assert decoded is not None, "trust.bin must be fresh and intact after ingest"

    def open_binary():
        index = read_binary_index(archive, catalog_hash)
        assert index is not None, "trust.bin must be fresh after ingest"
        index.close()
        return index

    binary_s, _ = timed(open_binary, rounds=COLD_ROUNDS)
    return {
        "decode_s": decode_s,
        "binary_s": binary_s,
        "speedup": decode_s / binary_s if binary_s > 0 else float("inf"),
    }


def _bench_warm(archive: Archive, batch: list[str], dates, *, iters: int) -> dict:
    """p50 of a warm in-process ``trusted_on_many`` batch."""
    engine = ArchiveQuery(archive)
    engine.trusted_on_many(batch, dates[0])  # prime caches
    latencies = []
    for k in range(iters):
        when = dates[k % len(dates)]
        start = time.perf_counter()
        engine.trusted_on_many(batch, when)
        latencies.append(time.perf_counter() - start)
    p50 = _percentile(latencies, 0.50)
    return {
        "batch": len(batch),
        "iters": iters,
        "p50_s": p50,
        "per_fp_us": p50 / len(batch) * 1e6,
    }


def _drive_level(
    host: str,
    port: int,
    payloads: list[list[dict]],
    *,
    concurrency: int,
    per_thread: int,
    batch: int,
) -> dict:
    """``concurrency`` clients, ``per_thread`` batches each; latency ladder."""
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)

    def drive(slot: int) -> None:
        with ServingClient(host, port) as client:
            barrier.wait()
            for k in range(per_thread):
                start = time.perf_counter()
                client.batch(payloads[k % len(payloads)])
                latencies[slot].append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    flat = [latency for per_client in latencies for latency in per_client]
    p50 = _percentile(flat, 0.50)
    return {
        "concurrency": concurrency,
        "requests": len(flat),
        "batch": batch,
        "p50_ms": p50 * 1e3,
        "p99_ms": _percentile(flat, 0.99) * 1e3,
        "per_fp_us": p50 / batch * 1e6,
        "throughput_rps": len(flat) / wall if wall > 0 else float("inf"),
    }


def _bench_daemon(
    root: Path,
    batch: list[str],
    dates,
    *,
    per_thread: int,
    warm_batch_p50_s: float,
) -> dict:
    daemon = ServingDaemon(ServingConfig(root=root, workers=WORKERS))
    start = time.perf_counter()
    host, port = daemon.start()
    startup_s = time.perf_counter() - start
    try:
        pss = [worker_pss_bytes(pid) for pid in daemon.pids]
        pss_known = [value for value in pss if value is not None]
        payloads = [
            [
                {
                    "op": "trusted_on",
                    "fingerprints": batch,
                    "when": when.isoformat(),
                }
            ]
            for when in dates
        ]
        levels = [
            _drive_level(
                host,
                port,
                payloads,
                concurrency=concurrency,
                per_thread=per_thread,
                batch=len(batch),
            )
            for concurrency in CONCURRENCY_LEVELS
        ]
    finally:
        daemon.stop()
    # The overhead floor compares like with like: one daemon batch at
    # concurrency 1 vs. the same warm in-process batch.
    ratio = (
        levels[0]["p50_ms"] / 1e3 / warm_batch_p50_s
        if warm_batch_p50_s > 0
        else float("inf")
    )
    return {
        "workers": WORKERS,
        "startup_s": startup_s,
        "pss_bytes_per_worker": max(pss_known) if pss_known else None,
        "levels": levels,
        "overhead": {"ratio": ratio},
    }


def run(dataset: Dataset, smoke: bool) -> dict:
    if smoke:
        dataset = smoke_dataset(dataset)
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as tmp:
        root = Path(tmp) / "archive"
        archive = Archive(root, create=True)
        ingest_dataset(archive, dataset)

        probe_engine = ArchiveQuery(archive)
        fingerprints, dates = _probe_space(probe_engine)
        batch = fingerprints[: min(len(fingerprints), 32 if smoke else 256)]

        cold = _bench_cold_start(archive)
        warm = _bench_warm(archive, batch, dates, iters=16 if smoke else 128)
        daemon = _bench_daemon(
            root,
            batch,
            dates,
            per_thread=8 if smoke else 64,
            warm_batch_p50_s=warm["p50_s"],
        )
        return {
            "providers": len(probe_engine.providers),
            "snapshots": sum(
                len(timeline) for timeline in probe_engine.index.timelines.values()
            ),
            "fingerprints": len(fingerprints),
            "cold_start": cold,
            "warm": warm,
            "daemon": daemon,
        }


SUITE = Suite(
    name="serving",
    output="BENCH_serving.json",
    run=run,
    floors=(
        Floor("daemon.levels.2.requests", ">=", 1, always=True),
        Floor("cold_start.speedup", ">=", 10.0),
        Floor("daemon.overhead.ratio", "<=", 5.0),
    ),
)

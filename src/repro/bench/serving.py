"""Serving-layer benchmarks — the numbers behind ``BENCH_serving.json``.

The serving layer exists for two measurable promises:

- **cold start**: opening ``trust.bin`` is a header read + mmap, not
  the full checksummed decode of the same file — the committed floor
  demands ≥ 10x.
- **serving overhead**: a batched daemon round trip must stay within
  5x of the same warm in-process ``trusted_on_many`` batch — the
  price of HTTP + JSON + process hop, amortized by batching.

The suite measures both, plus the daemon under a concurrency ladder
(p50/p99 per level, ≥ 3 levels), startup time, and per-worker RSS
(via ``/proc``, ``None`` off-Linux).  It only measures: the
equivalence of the mmap-backed query surface with a manifest scan is
gated in ``tests/test_serving.py``.

Like the sibling suites, wall clock is the measurand here and
``REPRO_BENCH_SMOKE=1`` shrinks the corpus and ladder to ride inside
tier-1.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.archive import Archive, ingest_dataset
from repro.archive.binindex import read_binary_index, read_verified_index
from repro.archive.query import ArchiveQuery
from repro.bench.archive import _smoke_dataset
from repro.bench.perf import _timed, is_smoke_mode
from repro.serving import ServingClient, ServingConfig, ServingDaemon, worker_rss_bytes
from repro.store.history import Dataset

#: Committed floors (asserted by ``benchmarks/bench_serving.py``).
MIN_COLD_SPEEDUP = 10.0
MAX_DAEMON_OVERHEAD = 5.0

#: The concurrency ladder (≥ 3 levels, per the acceptance criteria).
CONCURRENCY_LEVELS = (1, 2, 4)


@dataclass(frozen=True)
class ServingSuite:
    """One run of the serving harness."""

    results: dict
    output_path: Path | None

    def summary_lines(self) -> list[str]:
        r = self.results
        lines = [
            f"mode            : {r['mode']} ({r['providers']} providers, "
            f"{r['fingerprints']} fingerprints)",
            f"cold start      : full decode {r['cold_start']['decode_s'] * 1e3:.2f} ms, "
            f"header open {r['cold_start']['binary_s'] * 1e3:.3f} ms "
            f"({r['cold_start']['speedup']:.0f}x, floor "
            f"{r['cold_start']['floor']['min_speedup']:.0f}x, "
            f"met={r['cold_start']['floor']['met']})",
            f"warm in-process : {r['warm']['per_fp_us']:.2f} us/fingerprint "
            f"(batch {r['warm']['batch']})",
            f"daemon          : {r['daemon']['workers']} workers, "
            f"startup {r['daemon']['startup_s'] * 1e3:.0f} ms, "
            f"rss/worker {_fmt_rss(r['daemon']['rss_bytes_per_worker'])}",
        ]
        for level in r["daemon"]["levels"]:
            lines.append(
                f"  c={level['concurrency']:<2d}          : "
                f"p50 {level['p50_ms']:.2f} ms, p99 {level['p99_ms']:.2f} ms, "
                f"{level['throughput_rps']:.0f} req/s "
                f"({level['per_fp_us']:.2f} us/fingerprint)"
            )
        overhead = r["daemon"]["overhead"]
        lines.append(
            f"daemon overhead : {overhead['ratio']:.2f}x warm in-process "
            f"(floor {overhead['floor']['max_ratio']:.0f}x, "
            f"met={overhead['floor']['met']})"
        )
        return lines


def _fmt_rss(value) -> str:
    return f"{value / 1e6:.1f} MB" if value else "n/a"


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


def _bench_cold_start(archive: Archive, *, rounds: int) -> dict:
    """Full checksummed decode vs. header open of ``trust.bin``, best of ``rounds`` each."""
    catalog_hash = archive.catalog_hash()
    decode_s, decoded = _timed(
        lambda: read_verified_index(archive, catalog_hash),
        rounds=rounds,
        suite="serving",
        section="cold_decode",
    )
    assert decoded is not None, "trust.bin must be fresh and intact after ingest"

    def open_binary():
        index = read_binary_index(archive, catalog_hash)
        assert index is not None, "trust.bin must be fresh after ingest"
        index.close()
        return index

    binary_s, _ = _timed(
        open_binary, rounds=rounds, suite="serving", section="cold_binary"
    )
    speedup = decode_s / binary_s if binary_s > 0 else float("inf")
    return {
        "decode_s": decode_s,
        "binary_s": binary_s,
        "speedup": speedup,
        "floor": {"min_speedup": MIN_COLD_SPEEDUP, "met": speedup >= MIN_COLD_SPEEDUP},
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
    workers: int,
    per_thread: int,
    warm_batch_p50_s: float,
) -> dict:
    daemon = ServingDaemon(ServingConfig(root=root, workers=workers))
    start = time.perf_counter()
    host, port = daemon.start()
    startup_s = time.perf_counter() - start
    try:
        rss = [worker_rss_bytes(pid) for pid in daemon.pids]
        rss_known = [r for r in rss if r is not None]
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
        "workers": workers,
        "startup_s": startup_s,
        "rss_bytes_per_worker": max(rss_known) if rss_known else None,
        "levels": levels,
        "overhead": {
            "ratio": ratio,
            "floor": {
                "max_ratio": MAX_DAEMON_OVERHEAD,
                "met": ratio <= MAX_DAEMON_OVERHEAD,
            },
        },
    }


def run_serving_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    rounds: int | None = None,
    workers: int = 2,
    output: Path | str | None = None,
) -> ServingSuite:
    """Run every section and optionally write ``BENCH_serving.json``."""
    if smoke is None:
        smoke = is_smoke_mode()
    if rounds is None:
        rounds = 1 if smoke else 5
    if dataset is None:
        from repro.simulation import default_corpus

        dataset = default_corpus().dataset
    if smoke:
        dataset = _smoke_dataset(dataset)

    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as tmp:
        root = Path(tmp) / "archive"
        archive = Archive(root, create=True)
        ingest_dataset(archive, dataset)

        probe_engine = ArchiveQuery(archive)
        fingerprints, dates = _probe_space(probe_engine)
        batch = fingerprints[: min(len(fingerprints), 32 if smoke else 256)]

        cold = _bench_cold_start(archive, rounds=max(rounds, 3))
        warm = _bench_warm(
            archive, batch, dates, iters=16 if smoke else 128
        )
        daemon = _bench_daemon(
            root,
            batch,
            dates,
            workers=workers,
            per_thread=8 if smoke else 64,
            warm_batch_p50_s=warm["p50_s"],
        )

        results = {
            "schema": 1,
            "mode": "smoke" if smoke else "full",
            "providers": len(probe_engine.providers),
            "snapshots": sum(
                len(timeline) for timeline in probe_engine.index.timelines.values()
            ),
            "fingerprints": len(fingerprints),
            "cold_start": cold,
            "warm": warm,
            "daemon": daemon,
        }

    output_path = Path(output) if output is not None else None
    if output_path is not None:
        output_path.write_text(json.dumps(results, indent=2) + "\n")
    return ServingSuite(results=results, output_path=output_path)

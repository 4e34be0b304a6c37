"""Incremental-ingest benchmarks — the numbers behind ``BENCH_ingest.json``.

The continuous-ingestion watcher exists so a new origin tag costs a
*delta* ingest (scrape one tag, patch the persisted index) instead of
the full re-ingest a batch pipeline would do.  This suite measures
that trade directly:

- **full**: a watch cycle over empty checkpoints — every origin tag is
  scraped, ingested, and indexed from scratch (the path the watcher
  replaces).
- **delta**: a watch cycle against an archive already caught up to
  all-but-one tag per origin — only the newest tag per origin is
  scraped, and the index is patched in place.

The committed floor (``benchmarks/bench_ingest.py``) demands the delta
cycle beat the full cycle by ≥ 10x.  Correctness gates are enforced in
*every* mode: the delta-maintained archive must converge to the same
catalog hash — and byte-identical persisted index — as the
from-scratch one, verify clean, and have ingested exactly one tag per
origin.

Like the sibling suites, wall clock is the measurand here and
``REPRO_BENCH_SMOKE=1`` shrinks the corpus to ride inside tier-1.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.archive import Archive, verify_archive
from repro.archive.binindex import read_verified_index
from repro.archive.index import INDEX_DIR
from repro.bench.archive import _smoke_dataset
from repro.bench.perf import _timed, is_smoke_mode
from repro.collection.faults import SimulatedClock
from repro.collection.watch import Watcher, build_watch_world
from repro.store.history import Dataset

#: The floor the committed benchmark enforces in full mode.
MIN_DELTA_SPEEDUP = 10.0


@dataclass(frozen=True)
class IngestSuite:
    """One run of the incremental-ingest harness."""

    results: dict
    output_path: Path | None

    def summary_lines(self) -> list[str]:
        r = self.results
        return [
            f"mode            : {r['mode']} ({r['origins']} origins)",
            f"full ingest     : {r['full']['total_s']:.4f} s "
            f"({r['full']['snapshots']} snapshots)",
            f"delta ingest    : {r['delta']['total_s']:.4f} s "
            f"({r['delta']['snapshots']} snapshots, one tag per origin)",
            f"speedup         : {r['speedup']:.1f}x "
            f"(floor {r['floor']['min_speedup']:.0f}x, met={r['floor']['met']})",
            f"convergence     : catalog_match={r['correctness']['catalog_match']}, "
            f"index_identical={r['correctness']['index_identical']}, "
            f"verify_ok={r['correctness']['verify_ok']}",
        ]


def _index_bytes(archive: Archive) -> bytes:
    """Every file under ``index/``, concatenated in name order, or ``b''``.

    A delta-maintained archive must land on exactly the bytes a rebuild
    produces.
    """
    directory = archive.root / INDEX_DIR
    return b"".join(path.read_bytes() for path in sorted(directory.glob("*")))


def _full_cycle(root: Path, dataset: Dataset, *, index: int):
    """One watch cycle from empty checkpoints: everything is delta."""
    world = build_watch_world(dataset, hold_back=0)
    archive = Archive(root / f"full-{index}", create=True)
    watcher = Watcher(archive, world.origins, clock=SimulatedClock())
    return archive, watcher.run_cycle()


def _seed_delta(root: Path, dataset: Dataset, *, index: int):
    """An archive caught up to all-but-one tag per origin (not timed)."""
    world = build_watch_world(dataset, hold_back=1)
    archive = Archive(root / f"delta-{index}", create=True)
    Watcher(archive, world.origins, clock=SimulatedClock()).run_cycle()
    world.advance()
    return archive, world


def run_ingest_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    rounds: int | None = None,
    output: Path | str | None = None,
) -> IngestSuite:
    """Run both sides and optionally write ``BENCH_ingest.json``."""
    if smoke is None:
        smoke = is_smoke_mode()
    if rounds is None:
        rounds = 1
    if dataset is None:
        from repro.simulation import default_corpus

        dataset = default_corpus().dataset
    if smoke:
        dataset = _smoke_dataset(dataset)

    with tempfile.TemporaryDirectory(prefix="repro-ingest-bench-") as tmp:
        root = Path(tmp)
        counter = iter(range(1_000_000))
        full_s, (full_archive, full_cycle) = _timed(
            lambda: _full_cycle(root, dataset, index=next(counter)),
            rounds=rounds,
            suite="ingest",
            section="full",
        )

        # Each delta round consumes a pre-seeded archive: the seeding
        # (the expensive catch-up ingest) happens outside the clock.
        seeds = [_seed_delta(root, dataset, index=k) for k in range(max(rounds, 1))]

        def delta_cycle():
            archive, world = seeds.pop()
            watcher = Watcher(archive, world.origins, clock=SimulatedClock())
            return archive, watcher.run_cycle()

        delta_s, (delta_archive, delta_cycle_result) = _timed(
            delta_cycle, rounds=rounds, suite="ingest", section="delta"
        )

        origins = len(full_cycle.outcomes)
        correctness = {
            "catalog_match": delta_archive.catalog_hash() == full_archive.catalog_hash(),
            "index_identical": _index_bytes(delta_archive) == _index_bytes(full_archive),
            "index_fresh": read_verified_index(delta_archive, delta_archive.catalog_hash())
            is not None,
            "verify_ok": verify_archive(delta_archive).ok,
            "delta_is_one_tag_per_origin": delta_cycle_result.snapshots_ingested
            == origins,
        }
        speedup = full_s / delta_s if delta_s > 0 else float("inf")
        results = {
            "schema": 1,
            "mode": "smoke" if smoke else "full",
            "origins": origins,
            "full": {"total_s": full_s, "snapshots": full_cycle.snapshots_ingested},
            "delta": {
                "total_s": delta_s,
                "snapshots": delta_cycle_result.snapshots_ingested,
            },
            "speedup": speedup,
            "floor": {
                "min_speedup": MIN_DELTA_SPEEDUP,
                "met": speedup >= MIN_DELTA_SPEEDUP,
            },
            "correctness": correctness,
        }

    output_path = Path(output) if output is not None else None
    if output_path is not None:
        output_path.write_text(json.dumps(results, indent=2) + "\n")
    return IngestSuite(results=results, output_path=output_path)

"""The ``ingest`` suite — delta-vs-full numbers behind ``BENCH_ingest.json``.

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

The delta cycle must beat the full cycle by ≥ 10x.  Correctness gates
hold in every mode: the delta-maintained archive must converge to the
same catalog hash — and byte-identical persisted index — as the
from-scratch one, verify clean, and have ingested exactly one tag per
origin.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.archive import Archive, verify_archive
from repro.archive.binindex import read_binary_index
from repro.archive.index import INDEX_DIR
from repro.bench.runner import Floor, Suite, smoke_dataset, timed
from repro.collection.faults import SimulatedClock
from repro.collection.watch import Watcher, build_watch_world
from repro.store.history import Dataset


def _index_bytes(archive: Archive) -> bytes:
    """Every file under ``index/``, concatenated in name order, or ``b''``.

    A delta-maintained archive must land on exactly the bytes a rebuild
    produces.
    """
    directory = archive.root / INDEX_DIR
    return b"".join(path.read_bytes() for path in sorted(directory.glob("*")))


def _full_cycle(root: Path, dataset: Dataset):
    """One watch cycle from empty checkpoints: everything is delta."""
    world = build_watch_world(dataset, hold_back=0)
    archive = Archive(root / "full", create=True)
    watcher = Watcher(archive, world.origins, clock=SimulatedClock())
    return archive, watcher.run_cycle()


def _seed_delta(root: Path, dataset: Dataset):
    """An archive caught up to all-but-one tag per origin (not timed)."""
    world = build_watch_world(dataset, hold_back=1)
    archive = Archive(root / "delta", create=True)
    Watcher(archive, world.origins, clock=SimulatedClock()).run_cycle()
    world.advance()
    return archive, world


def run(dataset: Dataset, smoke: bool) -> dict:
    if smoke:
        dataset = smoke_dataset(dataset)
    with tempfile.TemporaryDirectory(prefix="repro-ingest-bench-") as tmp:
        root = Path(tmp)
        full_s, (full_archive, full_cycle) = timed(lambda: _full_cycle(root, dataset))
        # The seeding (the expensive catch-up ingest) happens off the clock.
        delta_archive, world = _seed_delta(root, dataset)
        delta_s, delta_cycle = timed(
            lambda: Watcher(delta_archive, world.origins, clock=SimulatedClock()).run_cycle()
        )

        origins = len(full_cycle.outcomes)
        return {
            "origins": origins,
            "full": {"total_s": full_s, "snapshots": full_cycle.snapshots_ingested},
            "delta": {"total_s": delta_s, "snapshots": delta_cycle.snapshots_ingested},
            "speedup": full_s / delta_s if delta_s > 0 else float("inf"),
            "correctness": {
                "catalog_match": delta_archive.catalog_hash()
                == full_archive.catalog_hash(),
                "index_identical": _index_bytes(delta_archive)
                == _index_bytes(full_archive),
                "index_fresh": read_binary_index(
                    delta_archive, delta_archive.catalog_hash()
                )
                is not None,
                "verify_ok": verify_archive(delta_archive).ok,
                "delta_is_one_tag_per_origin": delta_cycle.snapshots_ingested == origins,
            },
        }


SUITE = Suite(
    name="ingest",
    output="BENCH_ingest.json",
    run=run,
    floors=(
        Floor("correctness.catalog_match", always=True),
        Floor("correctness.index_identical", always=True),
        Floor("correctness.index_fresh", always=True),
        Floor("correctness.verify_ok", always=True),
        Floor("correctness.delta_is_one_tag_per_origin", always=True),
        Floor("speedup", ">=", 10.0),
    ),
)

"""The inverted index over the archive catalog: build, delta, persist, load.

Two maps turn the high-value queries from catalog scans into direct
lookups:

- **fingerprint postings**: certificate fingerprint → sorted
  ``(provider, version, taken_at)`` postings — one per snapshot that
  contains the root.  Answers "who ever shipped X, and in which
  releases?" without opening a single manifest.
- **provider timelines**: provider → the date-ordered ``(taken_at,
  version, manifest_id)`` release timeline.  Point-in-time resolution
  ("the snapshot in force on date D") is a ``bisect`` over this list.

The index has one representation: the sections of ``index/trust.bin``
(:class:`~repro.archive.binindex.BinaryIndex`), mapped by readers and
held in memory by writers.  It carries the catalog hash it was built
from; loading compares it against the live catalog and silently
rebuilds (and re-persists) when stale or damaged, so the index never
needs manual invalidation.

Every index is assembled the same way: a batch of :class:`IndexChange`
merged into a base (:func:`apply_index_delta`).  A commit merges its
session's changes into the index of the catalog it started from; a
first ingest and a full rebuild (:func:`build_index`) merge every
catalog row into the empty index.  So a delta-maintained file is
byte-identical to a rebuilt one — the kill-matrix tests require it.
The human-auditable view is rendered on demand
(:func:`render_index_json`, ``repro-roots archive index-dump``), never
stored.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

# The record types and INDEX_DIR live with the layout; re-exported here.
from repro.archive.binindex import (
    INDEX_DIR,
    BinaryIndex,
    Posting,
    TimelineEntry,
    empty_index,
    persist_binary_index,
    read_binary_index,
)
from repro.archive.manifest import Archive, CatalogRow
from repro.errors import ArchiveError


class IndexChange(NamedTuple):
    """One snapshot a writer session changed — all a delta needs of it.

    Rows and fingerprints only: a writer keeps one of these per changed
    snapshot until commit, and never the manifest itself.
    """

    old_row: CatalogRow | None  # the superseded row; None for a new snapshot
    old_fingerprints: frozenset[str]  # the superseded manifest's fingerprints
    row: CatalogRow  # the snapshot's new catalog row
    fingerprints: tuple[str, ...]  # the new manifest's fingerprints, sorted


def _catalog_hash(archive: Archive) -> str:
    catalog_hash = archive.catalog_hash()
    if catalog_hash is None:
        raise ArchiveError(f"archive {archive.root} has no catalog (nothing ingested?)")
    return catalog_hash


def build_index(archive: Archive) -> BinaryIndex:
    """Every manifest's fingerprints, merged into the empty index."""
    catalog_hash = _catalog_hash(archive)
    changes = [
        IndexChange(
            None,
            frozenset(),
            row,
            tuple(sorted(archive.read_manifest(row.provider, row.manifest_id).fingerprints())),
        )
        for row in archive.read_catalog()
    ]
    return apply_index_delta(empty_index(), changes, catalog_hash)


def apply_index_delta(
    base: BinaryIndex,
    changes: Iterable[IndexChange],
    catalog_hash: str,
) -> BinaryIndex:
    """A new index equal to rebuilding after ``changes``, without the scan.

    ``changes`` is what one writer session did, one :class:`IndexChange`
    per changed snapshot, in order; a key changed twice keeps its last
    row and fingerprints.  They are applied as one batch
    (:meth:`~repro.archive.binindex.BinaryIndex.merged`): only the
    posting lists they touch are rebuilt.
    """
    net: dict[tuple[str, str, str], tuple] = {}
    for old_row, old_fingerprints, row, fingerprints in changes:
        # The first change to a key says what the base holds for it.
        held = net.get(row.key)
        if held is not None:
            previous = held[2]
        else:
            previous = frozenset(old_fingerprints) if old_row is not None else frozenset()
        net[row.key] = (row, frozenset(fingerprints), previous)
    return base.merged(catalog_hash, net.values())


def render_index_json(index: BinaryIndex) -> str:
    """The index as one canonical compact JSON document.

    Sorted keys and no whitespace, so the same index always renders to
    the same bytes: postings as ``[provider, version, taken_at]`` rows,
    timelines as ``[taken_at, version, manifest_id, entries]`` rows.
    """
    document = {
        "catalog_hash": index.catalog_hash,
        "postings": {
            fp: [[p.provider, p.version, p.taken_at.isoformat()] for p in index.postings_for(fp)]
            for fp in index.postings
        },
        "timelines": {
            provider: [
                [t.taken_at.isoformat(), t.version, t.manifest_id, t.entries]
                for t in index.timeline(provider)
            ]
            for provider in index.providers
        },
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def persist_index(archive: Archive, index: BinaryIndex) -> None:
    """Install ``index/trust.bin`` atomically, under the ``index`` crash site.

    The single writer of the persisted index: full rebuilds, commit-time
    deltas and repair all land through here.
    """
    persist_binary_index(archive, index)


def load_index(archive: Archive, *, rebuild: bool = False) -> BinaryIndex:
    """The archive's index: ``trust.bin`` when fresh, rebuilt otherwise.

    The fresh path is a verified open of the file; a missing, stale or
    damaged file (or ``rebuild=True``) falls back to a manifest scan.
    A rebuild is persisted before returning, so the cost is paid once
    per catalog version no matter how many query sessions follow.
    """
    catalog_hash = _catalog_hash(archive)
    if not rebuild:
        persisted = read_binary_index(archive, catalog_hash)
        if persisted is not None:
            return persisted
    index = build_index(archive)
    persist_index(archive, index)
    return index

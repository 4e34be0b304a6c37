"""The inverted index over the archive catalog.

Two maps turn the high-value queries from catalog scans into direct
lookups:

- **fingerprint postings**: certificate fingerprint → sorted
  ``(provider, version, taken_at)`` postings — one per snapshot that
  contains the root.  Answers "who ever shipped X, and in which
  releases?" without opening a single manifest.
- **provider timelines**: provider → the date-ordered ``(taken_at,
  version, manifest_id)`` release timeline.  Point-in-time resolution
  ("the snapshot in force on date D") is a ``bisect`` over this list.

The index is persisted in exactly one format, ``index/trust.bin``
(:mod:`repro.archive.binindex`), which carries the catalog hash it was
built from.  Loading compares it against the live catalog and silently
rebuilds (and re-persists) when stale, so the index never needs manual
invalidation: ingest rewrites the catalog, and the next query rebuilds
exactly once.  The encoding is deterministic — the kill-matrix tests
require a delta-maintained index to be byte-identical to a rebuilt
one.  The human-auditable view is rendered on demand
(:func:`render_index_json`, ``repro-roots archive index-dump``), never
stored.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Iterable, NamedTuple

from repro.archive.manifest import Archive, CatalogRow
from repro.errors import ArchiveError

#: Directory name of the index file inside an archive root.
INDEX_DIR = "index"


@dataclass(frozen=True)
class Posting:
    """One appearance of a fingerprint: a (provider, release) pair."""

    provider: str
    version: str
    taken_at: date


@dataclass(frozen=True)
class TimelineEntry:
    """One release on a provider's timeline."""

    taken_at: date
    version: str
    manifest_id: str
    entries: int


@dataclass(frozen=True)
class ArchiveIndex:
    """The loaded (or freshly built) index pair, ready to query."""

    catalog_hash: str
    postings: dict  # fingerprint -> tuple[Posting, ...]
    timelines: dict  # provider -> tuple[TimelineEntry, ...] (date-ordered)

    @property
    def providers(self) -> list[str]:
        return sorted(self.timelines)

    @property
    def fingerprint_count(self) -> int:
        return len(self.postings)

    def postings_for(self, fingerprint: str) -> tuple[Posting, ...]:
        return self.postings.get(fingerprint, ())

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        try:
            return self.timelines[provider]
        except KeyError as exc:
            raise ArchiveError(f"no provider {provider!r} in archive") from exc

    def in_force(self, provider: str, when: date) -> TimelineEntry | None:
        """The release in force at ``when`` (latest taken on or before).

        Both edges answer "no snapshot" (None) explicitly rather than
        falling through to the bisect arithmetic: an empty timeline has
        nothing to resolve, and a ``when`` before the first release
        must *not* index ``position - 1 == -1`` (which would silently
        wrap to the provider's *last* snapshot).
        """
        timeline = self.timeline(provider)
        if not timeline:
            return None  # provider known, but no snapshots on record
        position = bisect_right(timeline, when, key=lambda t: t.taken_at)
        if position == 0:
            return None  # `when` predates the first release
        return timeline[position - 1]


class IndexChange(NamedTuple):
    """One snapshot a writer session changed — all a delta needs of it.

    Rows and fingerprints only: a writer keeps one of these per changed
    snapshot until commit, and never the manifest itself.
    """

    old_row: CatalogRow | None  # the superseded row; None for a new snapshot
    old_fingerprints: frozenset[str]  # the superseded manifest's fingerprints
    row: CatalogRow  # the snapshot's new catalog row
    fingerprints: tuple[str, ...]  # the new manifest's fingerprints, sorted


def build_index(archive: Archive) -> ArchiveIndex:
    """Scan catalog + manifests into a fresh in-memory index."""
    catalog_hash = archive.catalog_hash()
    if catalog_hash is None:
        raise ArchiveError(f"archive {archive.root} has no catalog (nothing ingested?)")
    postings: dict[str, list[Posting]] = {}
    timelines: dict[str, list[TimelineEntry]] = {}
    for row in archive.read_catalog():
        timelines.setdefault(row.provider, []).append(
            TimelineEntry(
                taken_at=row.taken_at,
                version=row.version,
                manifest_id=row.manifest_id,
                entries=row.entries,
            )
        )
        manifest = archive.read_manifest(row.provider, row.manifest_id)
        for entry in manifest.entries:
            postings.setdefault(entry.fingerprint, []).append(
                Posting(provider=row.provider, version=row.version, taken_at=row.taken_at)
            )
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.taken_at, t.version))
    for plist in postings.values():
        plist.sort(key=lambda p: (p.provider, p.taken_at.isoformat(), p.version))
    return ArchiveIndex(
        catalog_hash=catalog_hash,
        postings={fp: tuple(ps) for fp, ps in postings.items()},
        timelines={p: tuple(ts) for p, ts in timelines.items()},
    )


def apply_index_delta(
    base: ArchiveIndex,
    changes: Iterable[IndexChange],
    catalog_hash: str,
) -> ArchiveIndex:
    """A new index equal to rebuilding after ``changes``, without the scan.

    ``changes`` is what one writer session did, one :class:`IndexChange`
    per changed snapshot.  Applied to the empty index, the changes of a
    session that started from no catalog are the whole index.  Postings
    and timelines are patched in place and re-sorted with exactly the
    :func:`build_index` sort keys, so the persisted bytes come out
    identical to a full rebuild — the kill-matrix test depends on that.
    """
    postings = {fp: list(ps) for fp, ps in base.postings.items()}
    timelines = {p: list(ts) for p, ts in base.timelines.items()}
    for old_row, old_fingerprints, row, fingerprints in changes:
        posting = Posting(provider=row.provider, version=row.version, taken_at=row.taken_at)
        entry = TimelineEntry(
            taken_at=row.taken_at,
            version=row.version,
            manifest_id=row.manifest_id,
            entries=row.entries,
        )
        timeline = timelines.setdefault(row.provider, [])
        if old_row is not None:
            # Same (provider, version, taken_at) key, new content: the
            # Posting value is unchanged, so only the fingerprint sets'
            # symmetric difference needs touching.
            new_fingerprints = set(fingerprints)
            for fp in set(old_fingerprints) - new_fingerprints:
                plist = postings.get(fp, [])
                if posting in plist:
                    plist.remove(posting)
                if not plist:
                    postings.pop(fp, None)
            for fp in new_fingerprints - set(old_fingerprints):
                postings.setdefault(fp, []).append(posting)
            for position, existing in enumerate(timeline):
                if (existing.taken_at, existing.version) == (entry.taken_at, entry.version):
                    timeline[position] = entry
                    break
            else:
                timeline.append(entry)
        else:
            for fp in fingerprints:
                postings.setdefault(fp, []).append(posting)
            timeline.append(entry)
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.taken_at, t.version))
    for plist in postings.values():
        plist.sort(key=lambda p: (p.provider, p.taken_at.isoformat(), p.version))
    return ArchiveIndex(
        catalog_hash=catalog_hash,
        postings={fp: tuple(ps) for fp, ps in postings.items()},
        timelines={p: tuple(ts) for p, ts in timelines.items()},
    )


def render_index_json(index: ArchiveIndex) -> str:
    """The index as one canonical compact JSON document.

    Sorted keys and no whitespace, so the same index always renders to
    the same bytes: postings as ``[provider, version, taken_at]`` rows,
    timelines as ``[taken_at, version, manifest_id, entries]`` rows.
    """
    document = {
        "catalog_hash": index.catalog_hash,
        "postings": {
            fp: [[p.provider, p.version, p.taken_at.isoformat()] for p in ps]
            for fp, ps in index.postings.items()
        },
        "timelines": {
            provider: [
                [t.taken_at.isoformat(), t.version, t.manifest_id, t.entries]
                for t in timeline
            ]
            for provider, timeline in index.timelines.items()
        },
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def persist_index(archive: Archive, index: ArchiveIndex) -> None:
    """Install ``index/trust.bin`` atomically, under the ``index`` crash site.

    The single writer of the persisted index: full rebuilds, commit-time
    deltas and repair all land through here.
    """
    from repro.archive.binindex import persist_binary_index  # circular at module scope

    persist_binary_index(archive, index)


def load_index(archive: Archive, *, rebuild: bool = False) -> ArchiveIndex:
    """The archive's index: ``trust.bin`` when fresh, rebuilt otherwise.

    The fresh path decodes the whole file after verifying its checksum;
    a missing, stale or damaged file (or ``rebuild=True``) falls back
    to a manifest scan.  A rebuild is persisted before returning, so
    the cost is paid once per catalog version no matter how many query
    sessions follow.
    """
    from repro.archive.binindex import read_verified_index  # circular at module scope

    catalog_hash = archive.catalog_hash()
    if catalog_hash is None:
        raise ArchiveError(f"archive {archive.root} has no catalog (nothing ingested?)")
    if not rebuild:
        persisted = read_verified_index(archive, catalog_hash)
        if persisted is not None:
            return persisted
    index = build_index(archive)
    persist_index(archive, index)
    return index

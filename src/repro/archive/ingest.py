"""Incremental ingest: live histories → on-disk archive.

Ingest consumes exactly what collection produces — a
:class:`~repro.store.history.StoreHistory` from ``scrape_history`` or a
whole :class:`~repro.store.history.Dataset` — and persists it:
certificate DER into the content store (deduplicated), one manifest
per snapshot, and a single atomic catalog rewrite at the end.

Everything is incremental.  Objects and manifests are content-named,
so a snapshot that is already archived costs one manifest encode and a
catalog lookup, and writes nothing; re-ingesting an unchanged corpus
leaves the object directory untouched and rewrites a byte-identical
catalog (same :meth:`~repro.archive.manifest.Archive.catalog_hash`).
A new snapshot's certificates are stored once per writer session: the
first sighting of a fingerprint costs one ``put`` (an ``exists()``
check, plus the write when the object is new), every later sighting a
set lookup.  A changed snapshot under an existing ``(provider, version,
taken_at)`` key — e.g. a re-scrape that salvaged more entries —
supersedes the old catalog row; the old manifest file stays until
``archive gc``.

Everything is also crash-consistent.  Each writer holds the archive's
single-writer lock (:class:`~repro.archive.lock.WriterLock`) for its
whole session, and records every snapshot's intent in the write-ahead
journal (:class:`~repro.archive.journal.IngestJournal`) *before*
touching objects or manifests, finishing with the hash the new catalog
will have just before the atomic catalog replace.  A writer that dies
at any instant leaves a journal file behind; ``archive repair`` uses
it to roll the ingest forward (catalog landed) or back (it did not).
Cleanup on *graceful* failure uses ``except Exception`` deliberately —
a simulated crash (:class:`~repro.archive.chaos.SimulatedCrash`
derives from :class:`BaseException`) must leave the lock held and the
journal on disk, exactly like ``kill -9``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.archive.binindex import empty_index, read_binary_index
from repro.archive.index import IndexChange, apply_index_delta, load_index, persist_index
from repro.archive.journal import IngestJournal, pending_transactions
from repro.archive.lock import WriterLock
from repro.archive.manifest import Archive, CatalogRow, SnapshotManifest, serialize_catalog
from repro.collection.retry import RetryPolicy
from repro.errors import ArchiveError
from repro.obs.instrument import count, observe, stage_timer
from repro.obs.runtime import get_telemetry
from repro.store.history import Dataset, StoreHistory
from repro.store.snapshot import RootStoreSnapshot


@dataclass
class IngestReport:
    """What one ingest run actually did to the archive."""

    snapshots_seen: int = 0
    snapshots_added: int = 0
    snapshots_replaced: int = 0
    snapshots_unchanged: int = 0
    objects_written: int = 0
    objects_deduplicated: int = 0
    manifests_written: int = 0
    providers: set = field(default_factory=set)

    def merge(self, other: "IngestReport") -> None:
        self.snapshots_seen += other.snapshots_seen
        self.snapshots_added += other.snapshots_added
        self.snapshots_replaced += other.snapshots_replaced
        self.snapshots_unchanged += other.snapshots_unchanged
        self.objects_written += other.objects_written
        self.objects_deduplicated += other.objects_deduplicated
        self.manifests_written += other.manifests_written
        self.providers |= other.providers

    def summary(self) -> str:
        return (
            f"{self.snapshots_seen} snapshots from {len(self.providers)} providers: "
            f"{self.snapshots_added} added, {self.snapshots_replaced} replaced, "
            f"{self.snapshots_unchanged} unchanged; "
            f"{self.objects_written} new objects "
            f"({self.objects_deduplicated} deduplicated), "
            f"{self.manifests_written} new manifests"
        )


class ArchiveWriter:
    """Stateful ingest session over one archive.

    Holds the catalog in memory while snapshots stream in (``collect
    --archive`` ingests provider by provider as scraping completes) and
    flushes it atomically on :meth:`commit`.
    """

    def __init__(
        self,
        archive: Archive,
        *,
        lock: bool = True,
        journal: bool = True,
        owner: str = "ingest",
        lock_policy: RetryPolicy | None = None,
        lock_sleep: Callable[[float], None] | None = None,
    ):
        self.archive = archive
        self.report = IngestReport()
        self._lock = (
            WriterLock(archive.root, owner=owner, policy=lock_policy, sleep=lock_sleep)
            if lock
            else None
        )
        self._journal = IngestJournal(archive.root) if journal else None
        if self._lock is not None:
            self._lock.acquire()
        try:
            pending = pending_transactions(archive.root)
            if pending:
                names = ", ".join(state.txn_id for state in pending)
                raise ArchiveError(
                    f"archive {archive.root} has {len(pending)} uncommitted ingest "
                    f"journal(s) ({names}) from a crashed writer; run "
                    "`repro-roots archive repair` before ingesting"
                )
            self._rows: dict[tuple[str, str, str], CatalogRow] = {
                row.key: row for row in archive.read_catalog()
            }
        except Exception:
            self._release_lock()
            raise
        self._dirty = False
        # Incremental-index bookkeeping: the catalog hash this session
        # started from, plus one IndexChange per snapshot that actually
        # changed — rows and fingerprints only, never the manifest, whose
        # bytes are dropped once written.  commit() patches the persisted
        # index with these (an empty index when the archive had no
        # catalog) instead of rescanning every manifest — unless
        # something forces a full rebuild.
        self._base_hash = archive.catalog_hash()
        self._index_changes: list[IndexChange] = []
        self._index_rebuild_needed = False
        # Fingerprints this session has stored or found present.  The
        # writer lock keeps every other writer and ``gc`` out, so none of
        # these objects can vanish before commit: a repeat needs no put.
        self._stored: set[str] = set()

    # -- crash-consistency plumbing --------------------------------------

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.release()

    def _journal_snapshot(self, row: CatalogRow, fingerprints: tuple[str, ...]) -> None:
        """Record the snapshot's intent before any of its bytes land."""
        if self._journal is None:
            return
        clock = get_telemetry().clock
        start = clock()
        if not self._journal.active:
            self._journal.begin(self.archive.catalog_hash())
        self._journal.record_snapshot(row.provider, row.manifest_id, list(fingerprints))
        observe("repro_archive_journal_seconds", clock() - start, phase="snapshot")

    def abort(self) -> None:
        """Retire this writer after a *graceful* failure, without committing.

        Anything already written is a content-named orphan (``gc``-able)
        and the catalog was never replaced, so the journal can be
        retired too — only an actual crash leaves one behind for
        ``archive repair``.
        """
        if self._journal is not None and self._journal.active:
            self._journal.close()
            if self._journal.path is not None:
                self._journal.path.unlink(missing_ok=True)
        self._release_lock()

    def add_snapshot(self, snapshot: RootStoreSnapshot) -> None:
        report = self.report
        report.snapshots_seen += 1
        report.providers.add(snapshot.provider)

        manifest = SnapshotManifest.from_snapshot(snapshot)
        row = CatalogRow(
            provider=manifest.provider,
            version=manifest.version,
            taken_at=manifest.taken_at,
            manifest_id=manifest.manifest_id,
            entries=len(manifest),
        )
        existing = self._rows.get(row.key)
        if existing is not None and existing.manifest_id == row.manifest_id:
            report.snapshots_unchanged += 1
            count("repro_archive_snapshots_total", outcome="unchanged")
            return  # manifest content-named and present: nothing to do

        if existing is not None:
            try:
                old = self.archive.read_manifest(existing.provider, existing.manifest_id)
                old_fingerprints = old.fingerprints()
            except ArchiveError:
                # Superseded manifest unreadable: the delta is unknowable,
                # so commit() falls back to a full index rebuild.
                self._index_rebuild_needed = True
                old_fingerprints = frozenset()
        else:
            old_fingerprints = frozenset()
        # Snapshot entries are fingerprint-ordered, so this tuple is sorted.
        fingerprints = tuple(entry.fingerprint for entry in snapshot.entries)
        self._index_changes.append(IndexChange(existing, old_fingerprints, row, fingerprints))

        self._journal_snapshot(row, fingerprints)
        written = deduplicated = 0
        stored = self._stored
        for entry in snapshot.entries:
            fingerprint = entry.fingerprint
            if fingerprint in stored:
                deduplicated += 1
                continue
            if self.archive.objects.put(entry.certificate.der).created:
                written += 1
            else:
                deduplicated += 1
            stored.add(fingerprint)
        report.objects_written += written
        report.objects_deduplicated += deduplicated
        if written:
            count("repro_archive_objects_total", written, outcome="written")
        if deduplicated:
            count("repro_archive_objects_total", deduplicated, outcome="deduplicated")
        _, created = self.archive.write_manifest(manifest)
        if created:
            report.manifests_written += 1
        if existing is None:
            report.snapshots_added += 1
            count("repro_archive_snapshots_total", outcome="added")
        else:
            report.snapshots_replaced += 1
            count("repro_archive_snapshots_total", outcome="replaced")
        self._rows[row.key] = row
        self._dirty = True

    def _update_index(self, new_hash: str) -> None:
        """Bring the persisted index to the just-written catalog.

        The cheap path merges this session's recorded changes into the
        index that matched its *starting* catalog — the empty index when
        the session started from no catalog, so a first ingest reads no
        manifest back.  Anything that breaks the delta invariant (no
        persisted index for an existing catalog, it was stale already or
        fails its checksum, or a superseded manifest was unreadable)
        falls back to the full rebuild.  Runs after the catalog replace
        and before the journal retires, so a crash mid-update leaves a
        pending journal for ``archive repair`` to finish the job.
        """
        if self._index_rebuild_needed:
            base = None
        elif self._base_hash is None:
            # No catalog when the session began: every row is one of this
            # session's changes, so the delta on an empty index is the
            # whole index.
            base = empty_index()
        else:
            base = read_binary_index(self.archive, self._base_hash)
        if base is not None:
            try:
                persist_index(self.archive, apply_index_delta(base, self._index_changes, new_hash))
            finally:
                base.close()
            count("repro_archive_index_updates_total", mode="delta")
        else:
            load_index(self.archive, rebuild=True)
            count("repro_archive_index_updates_total", mode="rebuild")
        self._index_changes = []
        self._base_hash = new_hash

    def add_history(self, history: StoreHistory) -> None:
        for snapshot in history:
            self.add_snapshot(snapshot)

    def commit(self) -> IngestReport:
        """Write the catalog (only when something changed), release, report.

        The catalog is serialized once: its SHA-256 is journaled first as
        the intent, so recovery can tell whether the replace landed, and
        the same bytes are then written and key the index update.  The
        journal itself is retired only after the replace.
        """
        try:
            with stage_timer(
                "archive.commit", "repro_archive_commit_seconds", archive=str(self.archive.root)
            ):
                if self._dirty or self.archive.catalog_bytes() is None:
                    rows = list(self._rows.values())
                    data = serialize_catalog(rows)
                    new_hash = hashlib.sha256(data).hexdigest()
                    if self._journal is not None:
                        clock = get_telemetry().clock
                        start = clock()
                        if not self._journal.active:
                            self._journal.begin(self.archive.catalog_hash())
                        self._journal.record_catalog(new_hash)
                        observe(
                            "repro_archive_journal_seconds", clock() - start, phase="catalog"
                        )
                    self.archive.write_catalog(rows, data)
                    self._update_index(new_hash)
                    if self._journal is not None:
                        self._journal.commit()
                    self._dirty = False
                elif self._journal is not None and self._journal.active:
                    self._journal.commit()  # intents that turned out to be no-ops
        except Exception:
            self.abort()
            raise
        self._release_lock()
        return self.report


def ingest_snapshots(
    archive: Archive, snapshots: Iterable[RootStoreSnapshot], **writer_options
) -> IngestReport:
    """Ingest a snapshot stream and commit the catalog once."""
    writer = ArchiveWriter(archive, **writer_options)
    try:
        for snapshot in snapshots:
            writer.add_snapshot(snapshot)
    except Exception:
        writer.abort()
        raise
    return writer.commit()


def ingest_history(archive: Archive, history: StoreHistory, **writer_options) -> IngestReport:
    return ingest_snapshots(archive, history, **writer_options)


def ingest_dataset(
    archive: Archive,
    dataset: Dataset,
    *,
    providers: Iterable[str] | None = None,
    **writer_options,
) -> IngestReport:
    """Ingest every (selected) provider history in deterministic order."""
    selected = sorted(providers) if providers is not None else dataset.providers
    return ingest_snapshots(
        archive, (s for p in selected for s in dataset[p]), **writer_options
    )

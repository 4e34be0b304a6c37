"""``archive repair``: roll back crashed ingests, quarantine damage.

Recovery is a single idempotent pass over everything a crash (or
bitrot) can leave behind, in dependency order:

1. **Lock** — a stale writer lock (dead pid) is broken; a *live*
   holder aborts the repair unless ``force_unlock=True`` (the flag the
   kill-point tests need, where the "crashed" writer is the test
   process itself).  Repair then holds the lock for its own duration.
2. **Temp debris** — every stale ``*.tmp`` is removed; final names
   were never touched, so this is pure sweeping.
3. **Journals** — each uncommitted transaction in ``journal/`` is
   rolled *forward* when its recorded catalog intent matches the
   catalog on disk (the atomic replace landed; only the cleanup was
   lost) and rolled *back* otherwise: the transaction's manifests not
   in the catalog and its objects not referenced by any cataloged
   manifest are deleted.  Intent lists over-approximate (they include
   deduplicated objects), which is safe precisely because rollback
   only removes what the catalog cannot reach.
4. **Integrity quarantine** — ``verify`` findings that journals cannot
   explain (torn or bit-flipped writes that landed under a final name,
   genuinely missing files) are quarantined rather than deleted:
   corrupt objects move to ``quarantine/objects/``, and every catalog
   row whose manifest is missing/corrupt or references a missing or
   quarantined object is dropped from the catalog with its manifest
   parked under ``quarantine/manifests/<provider>/``.  Rows that
   merely disagree with an intact manifest are *healed* from the
   manifest (the content-addressed truth).
5. **Catalog + index** — the healed catalog is atomically rewritten
   and the inverted index rebuilt, so ``verify`` reports a clean
   archive and queries serve immediately.

Quarantined snapshots are recorded in ``quarantine/quarantined.json``
so :class:`~repro.archive.query.ArchiveQuery` (in degraded mode) can
say *what* is unavailable, not just skip it; a later re-ingest of the
same snapshot drops it from the record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.archive.binindex import BINARY_FILE, BinaryIndex, binary_index_path
from repro.archive.cas import OBJECT_SUFFIX
from repro.archive.checkpoint import WATCH_DIR, CheckpointStore
from repro.archive.index import INDEX_DIR, load_index
from repro.archive.io import atomic_write_bytes, remove_all, stray_tmp_files
from repro.archive.journal import JournalState, pending_transactions
from repro.archive.lock import WriterLock, break_lock, read_lock
from repro.archive.manifest import Archive, CatalogRow, SnapshotManifest
from repro.archive.verify import verify_archive
from repro.errors import ArchiveError, ArchiveLockError

#: Directory name of the quarantine area inside an archive root.
QUARANTINE_DIR = "quarantine"
#: Record of quarantined snapshots, for degraded-mode reporting.
QUARANTINE_RECORD = "quarantined.json"


def quarantine_root(archive_root: Path) -> Path:
    return Path(archive_root) / QUARANTINE_DIR


@dataclass(frozen=True)
class QuarantinedSnapshot:
    """One snapshot ``repair`` had to pull out of the catalog."""

    provider: str
    version: str
    taken_at: str  # ISO 8601
    manifest_id: str
    reason: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.provider, self.version, self.taken_at)


def read_quarantine(archive_root: Path) -> list[QuarantinedSnapshot]:
    """The recorded quarantined snapshots (empty when none/unreadable)."""
    path = quarantine_root(archive_root) / QUARANTINE_RECORD
    try:
        payload = json.loads(path.read_text())
        return [
            QuarantinedSnapshot(
                provider=r["provider"],
                version=r["version"],
                taken_at=r["taken_at"],
                manifest_id=r["manifest_id"],
                reason=r["reason"],
            )
            for r in payload["snapshots"]
        ]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return []


def write_quarantine(archive_root: Path, records: list[QuarantinedSnapshot]) -> None:
    directory = quarantine_root(archive_root)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "snapshots": [
            {
                "provider": r.provider,
                "version": r.version,
                "taken_at": r.taken_at,
                "manifest_id": r.manifest_id,
                "reason": r.reason,
            }
            for r in sorted(records, key=lambda r: (r.key, r.manifest_id))
        ]
    }
    data = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("ascii")
    atomic_write_bytes(directory / QUARANTINE_RECORD, data, site="quarantine")


@dataclass
class RepairReport:
    """Everything one repair pass did (all zeros/empty = nothing to fix)."""

    lock_broken: bool = False
    tmp_swept: int = 0
    catalog_salvaged: bool = False  # the catalog itself was unreadable
    rolled_forward: list = field(default_factory=list)  # txn ids
    rolled_back: list = field(default_factory=list)  # txn ids
    objects_removed: int = 0  # rollback deletions (unreachable intents)
    manifests_removed: int = 0
    objects_quarantined: int = 0
    snapshots_quarantined: int = 0
    rows_healed: int = 0
    index_rebuilt: bool = False
    index_healed: bool = False  # torn/stale incremental index rebuilt
    checkpoints_reset: bool = False  # damaged watch cursor/intent quarantined

    @property
    def clean(self) -> bool:
        """True when the archive needed nothing at all."""
        return not (
            self.lock_broken
            or self.tmp_swept
            or self.catalog_salvaged
            or self.rolled_forward
            or self.rolled_back
            or self.objects_quarantined
            or self.snapshots_quarantined
            or self.rows_healed
            or self.index_healed
            or self.checkpoints_reset
        )

    def action_lines(self) -> list[str]:
        lines: list[str] = []
        if self.lock_broken:
            lines.append("broke stale writer lock")
        if self.tmp_swept:
            lines.append(f"swept {self.tmp_swept} stale temp files")
        if self.catalog_salvaged:
            lines.append(
                "rebuilt unreadable catalog from manifests (damaged copy quarantined)"
            )
        for txn in self.rolled_forward:
            lines.append(f"rolled forward committed transaction {txn}")
        for txn in self.rolled_back:
            lines.append(f"rolled back interrupted transaction {txn}")
        if self.objects_removed or self.manifests_removed:
            lines.append(
                f"removed {self.objects_removed} objects and "
                f"{self.manifests_removed} manifests from rolled-back transactions"
            )
        if self.objects_quarantined:
            lines.append(f"quarantined {self.objects_quarantined} corrupt objects")
        if self.snapshots_quarantined:
            lines.append(f"quarantined {self.snapshots_quarantined} damaged snapshots")
        if self.rows_healed:
            lines.append(f"healed {self.rows_healed} catalog rows from manifests")
        if self.index_rebuilt:
            lines.append("rebuilt query indexes")
        if self.index_healed:
            lines.append("healed torn incremental index update (rebuilt)")
        if self.checkpoints_reset:
            lines.append("quarantined damaged watch checkpoint state")
        return lines

    def summary(self) -> str:
        if self.clean:
            return "repair: archive was already consistent"
        return "repair: " + "; ".join(self.action_lines())


def _salvage_catalog(archive: Archive, report: RepairReport) -> None:
    """Rebuild an unreadable catalog from the manifests on disk.

    A torn or bit-flipped write that landed on ``catalog.json`` itself
    leaves nothing to roll back by reference, but every manifest is
    content-addressed truth: each hash-valid manifest file becomes a
    catalog row again (on a key collision — superseded ingests — the
    richest manifest wins, deterministically).  The damaged catalog is
    parked in ``quarantine/`` for forensics.  A follow-up re-ingest of
    the same corpus converges to the byte-identical undamaged catalog.
    """
    damaged = quarantine_root(archive.root) / "catalog.corrupt.json"
    damaged.parent.mkdir(parents=True, exist_ok=True)
    archive.catalog_path.replace(damaged)
    salvaged: dict[tuple[str, str, str], CatalogRow] = {}
    for provider, manifest_id, _path in archive.manifest_files():
        try:
            manifest: SnapshotManifest = archive.read_manifest(provider, manifest_id)
        except ArchiveError:
            continue  # torn/flipped manifests are handled by quarantine later
        row = CatalogRow(
            provider=manifest.provider,
            version=manifest.version,
            taken_at=manifest.taken_at,
            manifest_id=manifest_id,
            entries=len(manifest),
        )
        incumbent = salvaged.get(row.key)
        if incumbent is None or (row.entries, row.manifest_id) > (
            incumbent.entries,
            incumbent.manifest_id,
        ):
            salvaged[row.key] = row
    archive.write_catalog(list(salvaged.values()))
    report.catalog_salvaged = True


def _roll_back(archive: Archive, state: JournalState, report: RepairReport) -> None:
    """Undo one interrupted transaction: delete its unreachable writes."""
    rows = archive.read_catalog()
    cataloged = {(row.provider, row.manifest_id) for row in rows}
    referenced: set[str] = set()
    for row in rows:
        try:
            manifest = archive.read_manifest(row.provider, row.manifest_id)
        except ArchiveError:
            continue  # damaged rows are the integrity pass's problem
        referenced.update(e.fingerprint for e in manifest.entries)
    for provider, manifest_id in sorted(state.manifests):
        if (provider, manifest_id) in cataloged:
            continue
        path = archive.manifest_path(provider, manifest_id)
        if path.exists():
            path.unlink()
            report.manifests_removed += 1
    for fingerprint in sorted(state.objects):
        if fingerprint in referenced:
            continue
        if archive.objects.remove(fingerprint):
            report.objects_removed += 1
    report.rolled_back.append(state.txn_id)


def _quarantine_object(archive: Archive, fingerprint: str, report: RepairReport) -> None:
    """Park a corrupt object's bytes for forensics instead of deleting."""
    source = archive.objects.path_for(fingerprint)
    if not source.exists():
        return
    destination = quarantine_root(archive.root) / "objects" / f"{fingerprint}{OBJECT_SUFFIX}"
    destination.parent.mkdir(parents=True, exist_ok=True)
    source.replace(destination)
    report.objects_quarantined += 1


def _quarantine_manifest(archive: Archive, provider: str, manifest_id: str) -> None:
    source = archive.manifest_path(provider, manifest_id)
    if not source.exists():
        return
    destination = quarantine_root(archive.root) / "manifests" / provider / f"{manifest_id}.json"
    destination.parent.mkdir(parents=True, exist_ok=True)
    source.replace(destination)


def repair_archive(archive: Archive, *, force_unlock: bool = False) -> RepairReport:
    """Run the full recovery pass described in the module docstring.

    Idempotent: a second run over the result is a no-op (``clean``).
    Raises :class:`~repro.errors.ArchiveLockError` when a live writer
    holds the lock and ``force_unlock`` is False.
    """
    report = RepairReport()

    holder = read_lock(archive.root)
    if holder is not None:
        if holder.alive and not force_unlock:
            raise ArchiveLockError(
                f"archive {archive.root} is locked by live writer pid {holder.pid} "
                f"({holder.owner}); pass --force-unlock only if it is truly gone"
            )
        break_lock(archive.root)
        report.lock_broken = True

    with WriterLock(archive.root, owner="repair"):
        report.tmp_swept = remove_all(stray_tmp_files(archive.root))

        try:
            archive.read_catalog()
        except ArchiveError:
            _salvage_catalog(archive, report)

        current_hash = archive.catalog_hash()
        for state in pending_transactions(archive.root):
            if state.committed or (
                state.catalog_intent is not None and state.catalog_intent == current_hash
            ):
                # The catalog replace landed; only the journal cleanup
                # was lost.  Nothing to undo.
                report.rolled_forward.append(state.txn_id)
            else:
                _roll_back(archive, state, report)
            state.path.unlink(missing_ok=True)

        # Integrity pass: quarantine what no journal can explain.
        integrity = verify_archive(archive)
        corrupt_fingerprints = {fp for fp, _ in integrity.corrupt_objects}
        for fingerprint in sorted(corrupt_fingerprints):
            _quarantine_object(archive, fingerprint, report)

        damaged_manifests = {
            (provider, manifest_id)
            for provider, manifest_id, _ in integrity.corrupt_manifests
        } | set(integrity.missing_manifests)
        missing_by_manifest: dict[tuple[str, str], list[str]] = {}
        for provider, manifest_id, fingerprint in integrity.missing_objects:
            missing_by_manifest.setdefault((provider, manifest_id), []).append(fingerprint)

        rows = archive.read_catalog()
        kept: list[CatalogRow] = []
        newly_quarantined: list[QuarantinedSnapshot] = []
        catalog_changed = False
        for row in rows:
            ref = (row.provider, row.manifest_id)
            reason: str | None = None
            if ref in damaged_manifests:
                reason = "manifest missing or corrupt"
            else:
                manifest = archive.read_manifest(row.provider, row.manifest_id)
                lost = sorted(
                    set(missing_by_manifest.get(ref, []))
                    | (manifest.fingerprints() & corrupt_fingerprints)
                )
                if lost:
                    reason = f"references unavailable objects: {', '.join(lost)}"
                elif (row.version, row.taken_at, row.entries) != (
                    manifest.version,
                    manifest.taken_at,
                    len(manifest),
                ):
                    # The manifest is content-verified truth: heal the row.
                    row = CatalogRow(
                        provider=manifest.provider,
                        version=manifest.version,
                        taken_at=manifest.taken_at,
                        manifest_id=row.manifest_id,
                        entries=len(manifest),
                    )
                    report.rows_healed += 1
                    catalog_changed = True
            if reason is None:
                kept.append(row)
                continue
            _quarantine_manifest(archive, row.provider, row.manifest_id)
            newly_quarantined.append(
                QuarantinedSnapshot(
                    provider=row.provider,
                    version=row.version,
                    taken_at=row.taken_at.isoformat(),
                    manifest_id=row.manifest_id,
                    reason=reason,
                )
            )
            report.snapshots_quarantined += 1
            catalog_changed = True

        if catalog_changed:
            archive.write_catalog(kept)

        # Maintain the quarantine record: add new entries, drop any
        # whose snapshot key is (back) in the catalog after re-ingest.
        existing = read_quarantine(archive.root)
        catalog_keys = {row.key for row in kept}
        merged: dict[tuple, QuarantinedSnapshot] = {}
        for record in existing + newly_quarantined:
            if record.key in catalog_keys:
                continue
            merged[record.key + (record.manifest_id,)] = record
        records = list(merged.values())
        if records or existing:
            write_quarantine(archive.root, records)

        if (catalog_changed or report.catalog_salvaged) and archive.catalog_hash() is not None:
            load_index(archive, rebuild=True)
            report.index_rebuilt = True
        else:
            _heal_index(archive, report)

        _heal_checkpoints(archive, report)

    return report


def _heal_index(archive: Archive, report: RepairReport) -> None:
    """Rebuild an index file a crashed incremental update left behind.

    ``ArchiveWriter.commit`` patches the persisted index *after* the
    catalog replace, so a kill in that window (or a torn/flipped write
    landing on ``trust.bin``) leaves an index that does not match the
    committed catalog.  An absent index is fine — queries build lazily
    — but a *present-and-wrong* one is crash damage: rebuild so the
    archive converges to the same bytes as an uninterrupted run.
    Stale (older catalog hash) is rebuilt in place; a torn header or
    payload-checksum mismatch is damage whose bytes are parked under
    ``quarantine/index/`` before the rebuild replaces the file.
    """
    catalog_hash = archive.catalog_hash()
    source = binary_index_path(archive)
    if catalog_hash is None or not source.exists():
        return
    try:
        binary = BinaryIndex(source)  # verifies header, length and checksum
    except (ArchiveError, OSError):
        destination = quarantine_root(archive.root) / INDEX_DIR / f"{BINARY_FILE}.corrupt"
        destination.parent.mkdir(parents=True, exist_ok=True)
        source.replace(destination)
    else:
        fresh = binary.catalog_hash == catalog_hash
        binary.close()
        if fresh:
            return
    load_index(archive, rebuild=True)
    report.index_healed = True


def _heal_checkpoints(archive: Archive, report: RepairReport) -> None:
    """Quarantine watch cursor/intent files a crash left unreadable.

    A damaged cursor file only costs a re-walk (ingest is idempotent),
    but leaving it in place would make every future load pay the
    lenient-decode path; parking it under ``quarantine/watch/`` gives
    the next cycle a clean slate and keeps the bytes for forensics.
    """
    store = CheckpointStore(archive.root)
    for path, loader in ((store.checkpoints_path, store.load), (store.intent_path, store.read_intent)):
        if not path.exists():
            continue
        store.damaged = False
        loader()
        if store.damaged:
            destination = quarantine_root(archive.root) / WATCH_DIR / f"{path.stem}.corrupt.json"
            destination.parent.mkdir(parents=True, exist_ok=True)
            path.replace(destination)
            report.checkpoints_reset = True

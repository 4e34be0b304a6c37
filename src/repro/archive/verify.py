"""Archive integrity verification and garbage collection.

``archive verify`` is the full-archive integrity pass: every stored
object is re-hashed against its content address, every catalog row is
cross-checked against its manifest file (present, byte-exact, and
describing the snapshot the catalog claims), and both directions of
dangling references are reported — objects/manifests on disk that
nothing references (*orphans*, from superseded ingests) and references
whose target is missing.  ``archive gc`` deletes exactly the orphans
``verify`` reports; nothing reachable from the catalog is ever touched.

Both passes also sweep for stale ``*.tmp`` files — the debris a writer
killed between its temp write and its ``os.replace`` leaves behind.
``verify`` counts and names them (they never make an archive CORRUPT:
the final name was untouched); ``gc`` deletes them.  ``gc`` also
deletes the JSON index files (:data:`LEGACY_INDEX_FILES`) that archives
written before ``trust.bin`` became the only persisted index still
carry.

A deleting ``gc`` holds the writer lock for its whole pass.  To a
concurrent ingest's eyes its in-flight temp files are debris and the
objects and manifests it has written but not yet cataloged are
orphans; deleting them would break its ``os.replace`` or leave the
catalog it is about to commit pointing at missing files.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.archive.index import INDEX_DIR
from repro.archive.io import remove_all, stray_tmp_files
from repro.archive.lock import WriterLock
from repro.archive.manifest import Archive
from repro.errors import ArchiveCorruptionError, ArchiveError

#: Index files older archives persisted beside ``trust.bin``; nothing reads them.
LEGACY_INDEX_FILES = ("fingerprints.json", "timelines.json")


@dataclass
class VerificationReport:
    """Everything the integrity pass found wrong (empty lists = healthy)."""

    objects_checked: int = 0
    manifests_checked: int = 0
    catalog_rows: int = 0
    corrupt_objects: list = field(default_factory=list)  # (fingerprint, detail)
    missing_objects: list = field(default_factory=list)  # (provider, manifest_id, fingerprint)
    orphan_objects: list = field(default_factory=list)  # fingerprints
    corrupt_manifests: list = field(default_factory=list)  # (provider, manifest_id, detail)
    missing_manifests: list = field(default_factory=list)  # (provider, manifest_id)
    mismatched_rows: list = field(default_factory=list)  # (provider, manifest_id, detail)
    orphan_manifests: list = field(default_factory=list)  # (provider, manifest_id)
    stale_tmp: list = field(default_factory=list)  # str paths of crashed-writer temp files
    damaged_index: list = field(default_factory=list)  # (file, detail) — torn/flipped index
    catalog_hash: str | None = None

    @property
    def ok(self) -> bool:
        return not (
            self.corrupt_objects
            or self.missing_objects
            or self.corrupt_manifests
            or self.missing_manifests
            or self.mismatched_rows
            or self.damaged_index
        )

    @property
    def orphan_count(self) -> int:
        return len(self.orphan_objects) + len(self.orphan_manifests)

    def problem_lines(self) -> list[str]:
        """One human-readable line per finding, for the CLI."""
        lines: list[str] = []
        for fingerprint, detail in self.corrupt_objects:
            lines.append(f"corrupt object {fingerprint}: {detail}")
        for provider, manifest_id, fingerprint in self.missing_objects:
            lines.append(
                f"manifest {provider}/{manifest_id} references missing object {fingerprint}"
            )
        for provider, manifest_id, detail in self.corrupt_manifests:
            lines.append(f"corrupt manifest {provider}/{manifest_id}: {detail}")
        for provider, manifest_id in self.missing_manifests:
            lines.append(f"catalog references missing manifest {provider}/{manifest_id}")
        for provider, manifest_id, detail in self.mismatched_rows:
            lines.append(f"catalog row disagrees with manifest {provider}/{manifest_id}: {detail}")
        for name, detail in self.damaged_index:
            lines.append(f"damaged index file {name}: {detail} (repair rebuilds it)")
        for fingerprint in self.orphan_objects:
            lines.append(f"orphan object {fingerprint} (unreferenced; gc-able)")
        for provider, manifest_id in self.orphan_manifests:
            lines.append(f"orphan manifest {provider}/{manifest_id} (not in catalog; gc-able)")
        for path in self.stale_tmp:
            lines.append(f"stale temp file {path} (crashed writer; gc-able)")
        return lines

    def summary(self) -> str:
        state = "OK" if self.ok else "CORRUPT"
        problems = len(self.problem_lines()) - self.orphan_count - len(self.stale_tmp)
        return (
            f"{state}: {self.objects_checked} objects, "
            f"{self.manifests_checked} manifests, {self.catalog_rows} catalog rows "
            f"checked; {problems} problems, {self.orphan_count} orphans, "
            f"{len(self.stale_tmp)} stale temp files"
        )


def verify_archive(archive: Archive) -> VerificationReport:
    """Hash every object, cross-check manifests vs. catalog, find orphans."""
    report = VerificationReport(catalog_hash=archive.catalog_hash())
    rows = archive.read_catalog()
    report.catalog_rows = len(rows)
    cataloged = {(row.provider, row.manifest_id) for row in rows}
    referenced: set[str] = set()

    # Catalog → manifests → objects (reachability + cross-checks).
    for row in rows:
        try:
            manifest = archive.read_manifest(row.provider, row.manifest_id)
        except ArchiveError as exc:
            if archive.manifest_path(row.provider, row.manifest_id).exists():
                report.corrupt_manifests.append((row.provider, row.manifest_id, str(exc)))
            else:
                report.missing_manifests.append((row.provider, row.manifest_id))
            continue
        report.manifests_checked += 1
        mismatches = [
            f"{field_name} {ours!r} != {theirs!r}"
            for field_name, ours, theirs in (
                ("provider", row.provider, manifest.provider),
                ("version", row.version, manifest.version),
                ("taken_at", row.taken_at, manifest.taken_at),
                ("entries", row.entries, len(manifest)),
            )
            if ours != theirs
        ]
        if mismatches:
            report.mismatched_rows.append(
                (row.provider, row.manifest_id, "; ".join(mismatches))
            )
        for entry in manifest.entries:
            referenced.add(entry.fingerprint)
            if entry.fingerprint not in archive.objects:
                report.missing_objects.append(
                    (row.provider, row.manifest_id, entry.fingerprint)
                )

    # Every object on disk: re-hash, and flag the unreferenced.
    for fingerprint in archive.objects.fingerprints():
        report.objects_checked += 1
        try:
            archive.objects.get(fingerprint)
        except ArchiveCorruptionError as exc:
            report.corrupt_objects.append((fingerprint, str(exc)))
            continue
        if fingerprint not in referenced:
            report.orphan_objects.append(fingerprint)

    # Manifest files not reachable from the catalog.
    for provider, manifest_id, _path in archive.manifest_files():
        if (provider, manifest_id) not in cataloged:
            report.orphan_manifests.append((provider, manifest_id))

    # Debris of writers killed mid-write (before their os.replace).
    report.stale_tmp = [str(path) for path in stray_tmp_files(archive.root)]

    # The binary query index: a torn header or checksum mismatch is
    # crash damage a serve/ingest must never keep answering from
    # (stale-but-valid is fine — queries rebuild it lazily).
    from repro.archive.binindex import check_binary_index

    finding = check_binary_index(archive)
    if finding is not None:
        report.damaged_index.append(finding)

    return report


@dataclass(frozen=True)
class GCResult:
    """What a garbage-collection pass removed (or would remove)."""

    objects_removed: int
    manifests_removed: int
    dry_run: bool
    tmp_removed: int = 0
    legacy_index_removed: tuple = ()  # archive-relative paths

    def summary(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        lines = [
            f"{verb} {self.objects_removed} objects, {self.manifests_removed} manifests, "
            f"{self.tmp_removed} stale temp files, "
            f"{len(self.legacy_index_removed)} legacy index files"
        ]
        lines += [f"  {verb} legacy index file {path}" for path in self.legacy_index_removed]
        return "\n".join(lines)


def gc_archive(archive: Archive, *, dry_run: bool = False) -> GCResult:
    """Delete orphan objects, manifests, stale temp files and legacy index files.

    Unless ``dry_run``, the pass runs under the writer lock, so it raises
    :class:`~repro.errors.ArchiveLockError` (deleting nothing) while a
    live writer holds the archive.
    """
    with nullcontext() if dry_run else WriterLock(archive.root, owner="gc"):
        report = verify_archive(archive)
        legacy = [
            path
            for path in (archive.root / INDEX_DIR / name for name in LEGACY_INDEX_FILES)
            if path.exists()
        ]
        if not dry_run:
            for fingerprint in report.orphan_objects:
                archive.objects.remove(fingerprint)
            for provider, manifest_id in report.orphan_manifests:
                archive.manifest_path(provider, manifest_id).unlink(missing_ok=True)
            remove_all(Path(path) for path in report.stale_tmp)
            remove_all(legacy)
        return GCResult(
            objects_removed=len(report.orphan_objects),
            manifests_removed=len(report.orphan_manifests),
            dry_run=dry_run,
            tmp_removed=len(report.stale_tmp),
            legacy_index_removed=tuple(f"{INDEX_DIR}/{path.name}" for path in legacy),
        )

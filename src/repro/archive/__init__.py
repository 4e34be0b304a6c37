"""Content-addressed trust-store archive with an indexed query engine.

The persistence layer under the ROADMAP's serving goals.  Collected
root-store histories land on disk exactly once — certificate DER
deduplicated by SHA-256 into a sharded object store
(:mod:`repro.archive.cas`), one canonical-JSON manifest per snapshot
plus an atomically rewritten catalog (:mod:`repro.archive.manifest`),
incremental ingest straight from ``scrape_history``/``Dataset``
(:mod:`repro.archive.ingest`) — and are served back through persisted
inverted indexes and LRU caches (:mod:`repro.archive.index`,
:mod:`repro.archive.query`): point-in-time trust lookups, snapshot
reconstruction, cross-provider diffs, removal lags, and archive-backed
incidence/distance matrices, all in milliseconds instead of a
full-corpus rebuild.  :mod:`repro.archive.verify` is the integrity
pass (every object re-hashed, catalog cross-checked, orphans found)
behind ``archive verify`` / ``archive gc``.

The archive is crash-consistent and self-healing end to end: every
write is durable and atomic with a unique per-writer temp name
(:mod:`repro.archive.io`), every ingest runs under the single-writer
lock (:mod:`repro.archive.lock`) with its intent in a write-ahead
journal (:mod:`repro.archive.journal`), a seeded fault harness can
kill a writer at every write site (:mod:`repro.archive.chaos`), and
``archive repair`` (:mod:`repro.archive.repair`) rolls interrupted
ingests forward or back and quarantines bitrot, leaving ``verify``
clean while degraded queries keep serving the intact snapshots.
"""

from repro.archive.binindex import (
    BinaryIndex,
    Posting,
    TimelineEntry,
    check_binary_index,
    load_binary_index,
    persist_binary_index,
    read_binary_index,
)
from repro.archive.cas import ContentStore, PutResult, content_address
from repro.archive.checkpoint import CheckpointStore, Cursor
from repro.archive.chaos import (
    ChaosPlan,
    CrashInjector,
    CrashPoint,
    SimulatedCrash,
    crash_at,
    record_sites,
)
from repro.archive.index import (
    IndexChange,
    apply_index_delta,
    build_index,
    load_index,
    persist_index,
)
from repro.archive.ingest import (
    ArchiveWriter,
    IngestReport,
    ingest_dataset,
    ingest_history,
    ingest_snapshots,
)
from repro.archive.io import (
    atomic_write_bytes,
    fsync_enabled,
    set_crash_hook,
    set_fsync,
    stray_tmp_files,
)
from repro.archive.journal import (
    IngestJournal,
    JournalState,
    pending_transactions,
    read_journal,
)
from repro.archive.lock import LockInfo, WriterLock, break_lock, read_lock
from repro.archive.manifest import (
    Archive,
    CatalogRow,
    ManifestEntry,
    SnapshotManifest,
    serialize_catalog,
)
from repro.archive.query import (
    ArchiveDiff,
    ArchiveQuery,
    CacheStats,
    RemovalLag,
    TrustObservation,
)
from repro.archive.repair import (
    QuarantinedSnapshot,
    RepairReport,
    read_quarantine,
    repair_archive,
)
from repro.archive.verify import GCResult, VerificationReport, gc_archive, verify_archive

__all__ = [
    "Archive",
    "ArchiveDiff",
    "ArchiveQuery",
    "ArchiveWriter",
    "BinaryIndex",
    "CacheStats",
    "CatalogRow",
    "ChaosPlan",
    "CheckpointStore",
    "Cursor",
    "ContentStore",
    "CrashInjector",
    "CrashPoint",
    "GCResult",
    "IndexChange",
    "IngestJournal",
    "IngestReport",
    "JournalState",
    "LockInfo",
    "ManifestEntry",
    "Posting",
    "PutResult",
    "QuarantinedSnapshot",
    "RemovalLag",
    "RepairReport",
    "SimulatedCrash",
    "SnapshotManifest",
    "TimelineEntry",
    "TrustObservation",
    "VerificationReport",
    "WriterLock",
    "apply_index_delta",
    "atomic_write_bytes",
    "break_lock",
    "build_index",
    "check_binary_index",
    "content_address",
    "crash_at",
    "fsync_enabled",
    "load_binary_index",
    "gc_archive",
    "ingest_dataset",
    "ingest_history",
    "ingest_snapshots",
    "load_index",
    "pending_transactions",
    "persist_binary_index",
    "persist_index",
    "read_binary_index",
    "read_journal",
    "read_lock",
    "read_quarantine",
    "record_sites",
    "repair_archive",
    "serialize_catalog",
    "set_crash_hook",
    "set_fsync",
    "stray_tmp_files",
    "verify_archive",
]

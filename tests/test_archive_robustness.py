"""Crash-consistency and self-healing tests for the archive (PR 4).

Four layers under test, bottom-up:

- the durable-write primitives (:mod:`repro.archive.io`): unique temp
  names, atomicity under a simulated kill, stale-temp sweeping;
- the single-writer lock (:mod:`repro.archive.lock`): exclusion with
  deterministic backoff, stale-lock breaking, unreadable lockfiles;
- the write-ahead journal (:mod:`repro.archive.journal`): intent
  round-trips, torn-tail tolerance, the pending-journal ingest guard;
- recovery (:mod:`repro.archive.repair` + degraded
  :class:`~repro.archive.query.ArchiveQuery`): the parametrized
  kill-point matrix — crash an ingest at *every* write site in every
  injection style, repair, and require a clean ``verify`` plus a
  re-ingest that converges to the byte-identical undamaged catalog —
  and bitrot quarantine with degraded serving.

The corpus here is three synthetic snapshots over the session's three
sample certificates: site *coverage* does not grow with corpus size,
and every matrix cell pays a full crash → repair → verify → re-ingest
cycle.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archive import (
    Archive,
    ArchiveQuery,
    ArchiveWriter,
    IngestJournal,
    WriterLock,
    break_lock,
    content_address,
    crash_at,
    gc_archive,
    ingest_dataset,
    pending_transactions,
    read_journal,
    read_lock,
    read_quarantine,
    record_sites,
    repair_archive,
    set_fsync,
    stray_tmp_files,
    verify_archive,
)
from repro.archive.binindex import binary_index_path, read_binary_index
from repro.archive.chaos import STYLES, ChaosPlan, SimulatedCrash
from repro.archive.io import atomic_write_bytes, unique_tmp
from repro.archive.lock import LOCK_FILE
from repro.archive.repair import QUARANTINE_DIR
from repro.cli.main import main
from repro.collection.retry import RetryPolicy
from repro.errors import (
    ArchiveCorruptionError,
    ArchiveError,
    ArchiveLockError,
)
from repro.store.history import Dataset, StoreHistory
from repro.store.snapshot import RootStoreSnapshot, TrustEntry

#: Every write site a non-empty ingest fires, in first-firing order.
INGEST_SITES = (
    "journal:begin",
    "journal:snapshot",
    "object:replace",
    "object:replaced",
    "manifest:replace",
    "manifest:replaced",
    "journal:catalog",
    "catalog:replace",
    "catalog:replaced",
    "index:replace",
    "index:replaced",
    "journal:commit",
    "journal:cleanup",
)

#: A couple of fast acquisition attempts for lock-contention tests.
FAST_POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, seed="test-lock")

# Crash/repair cycles hit the disk per example; mirror the archive
# property-test settings so tier-1 stays fast and unflaky.
ROBUSTNESS_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module", autouse=True)
def _fast_io():
    """These archives are throwaway: skip the fsync syscalls."""
    previous = set_fsync(False)
    yield
    set_fsync(previous)


@pytest.fixture(scope="module")
def tiny_dataset(sample_certs):
    """Two providers, three snapshots, three certs.

    The Gamma certificate ships only in ``beta@10``, so damaging its
    object quarantines exactly one snapshot and leaves the other two
    for degraded serving to demonstrate.
    """
    alpha, beta, gamma = sample_certs
    dataset = Dataset()
    dataset.add_history(
        StoreHistory(
            "alpha",
            snapshots=[
                RootStoreSnapshot.build(
                    "alpha",
                    date(2021, 1, 1),
                    "1.0",
                    [TrustEntry.make(alpha), TrustEntry.make(beta)],
                ),
                RootStoreSnapshot.build(
                    "alpha", date(2021, 2, 1), "2.0", [TrustEntry.make(alpha)]
                ),
            ],
        )
    )
    dataset.add_history(
        StoreHistory(
            "beta",
            snapshots=[
                RootStoreSnapshot.build(
                    "beta",
                    date(2021, 1, 15),
                    "10",
                    [TrustEntry.make(beta), TrustEntry.make(gamma)],
                ),
            ],
        )
    )
    return dataset


@pytest.fixture(scope="module")
def undamaged_hash(tiny_dataset, tmp_path_factory):
    """The catalog hash every repaired-and-re-ingested archive must reach."""
    archive = Archive(tmp_path_factory.mktemp("reference") / "arch", create=True)
    ingest_dataset(archive, tiny_dataset)
    return archive.catalog_hash()


def _gamma_fingerprint(sample_certs) -> str:
    return content_address(sample_certs[2].der)


def _flip(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestDurableWrites:
    def test_unique_tmp_names_never_collide(self, tmp_path):
        target = tmp_path / "catalog.json"
        first, second = unique_tmp(target), unique_tmp(target)
        assert first != second
        assert first.name.startswith("catalog.json.") and first.name.endswith(".tmp")

    def test_atomic_write_installs_bytes(self, tmp_path):
        target = tmp_path / "blob"
        atomic_write_bytes(target, b"payload", site="object")
        assert target.read_bytes() == b"payload"
        assert stray_tmp_files(tmp_path) == []

    def test_kill_before_replace_leaves_only_a_tmp(self, tmp_path):
        target = tmp_path / "blob"
        with crash_at("object:replace"):
            with pytest.raises(SimulatedCrash):
                atomic_write_bytes(target, b"payload", site="object")
        assert not target.exists()
        assert len(stray_tmp_files(tmp_path)) == 1

    def test_set_fsync_returns_previous(self):
        previous = set_fsync(True)
        assert set_fsync(previous) is True
        assert set_fsync(previous) is previous


class TestWriterLock:
    def test_acquire_release_roundtrip(self, tmp_path):
        lock = WriterLock(tmp_path, owner="test")
        with lock:
            info = read_lock(tmp_path)
            assert info is not None and info.owner == "test" and info.alive
        assert read_lock(tmp_path) is None

    def test_live_holder_excludes_with_backoff(self, tmp_path):
        sleeps: list[float] = []
        with WriterLock(tmp_path):
            contender = WriterLock(
                tmp_path, policy=FAST_POLICY, sleep=sleeps.append
            )
            with pytest.raises(ArchiveLockError, match="could not acquire"):
                contender.acquire()
        # One backoff sleep between each of the policy's attempts.
        assert len(sleeps) == FAST_POLICY.max_attempts - 1
        assert all(delay > 0 for delay in sleeps)

    def test_stale_lock_is_broken_and_acquired(self, tmp_path):
        (tmp_path / LOCK_FILE).write_text(json.dumps({"pid": 0, "owner": "ghost"}))
        with WriterLock(tmp_path, policy=FAST_POLICY, sleep=lambda _: None):
            info = read_lock(tmp_path)
            assert info is not None and info.owner == "ingest"

    def test_unreadable_lockfile_reads_as_stale(self, tmp_path):
        (tmp_path / LOCK_FILE).write_bytes(b'{"pid": 123')  # torn write
        info = read_lock(tmp_path)
        assert info is not None
        assert info.owner == "<unreadable>" and not info.alive
        assert break_lock(tmp_path) is True
        assert break_lock(tmp_path) is False

    def test_foreign_live_holder_pid_counts_as_alive(self, tmp_path, monkeypatch):
        """PermissionError from ``os.kill(pid, 0)`` means the pid *exists*
        (another user's process); that lock must back off, never break."""
        (tmp_path / LOCK_FILE).write_text(json.dumps({"pid": 12345, "owner": "other"}))

        def deny(pid, sig):
            raise PermissionError(f"kill {pid} not permitted")

        monkeypatch.setattr(os, "kill", deny)
        info = read_lock(tmp_path)
        assert info is not None and info.alive
        contender = WriterLock(tmp_path, policy=FAST_POLICY, sleep=lambda _: None)
        with pytest.raises(ArchiveLockError, match="could not acquire"):
            contender.acquire()
        assert (tmp_path / LOCK_FILE).exists()  # the foreign lock survived
        assert json.loads((tmp_path / LOCK_FILE).read_text())["owner"] == "other"

    def test_dead_pid_is_distinguished_from_foreign_live_pid(self, tmp_path, monkeypatch):
        (tmp_path / LOCK_FILE).write_text(json.dumps({"pid": 12345, "owner": "ghost"}))

        def gone(pid, sig):
            raise ProcessLookupError(pid)

        monkeypatch.setattr(os, "kill", gone)
        info = read_lock(tmp_path)
        assert info is not None and not info.alive
        # Only ProcessLookupError means stale: the lock is broken and taken.
        with WriterLock(tmp_path, policy=FAST_POLICY, sleep=lambda _: None):
            assert read_lock(tmp_path).owner == "ingest"

    def test_permission_denied_lockfile_is_presumed_alive(self, tmp_path, monkeypatch):
        """A lockfile we cannot even *read* proves a foreign owner exists;
        it must read as alive instead of the pid-0 stale placeholder."""
        lockfile = tmp_path / LOCK_FILE
        lockfile.write_text(json.dumps({"pid": 1, "owner": "other"}))
        real_read_text = Path.read_text

        def deny(self, *args, **kwargs):
            if self == lockfile:
                raise PermissionError(f"Permission denied: {self}")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", deny)
        info = read_lock(tmp_path)
        assert info is not None
        assert info.presumed_alive and info.alive and info.owner == "<foreign>"
        contender = WriterLock(tmp_path, policy=FAST_POLICY, sleep=lambda _: None)
        with pytest.raises(ArchiveLockError, match="could not acquire"):
            contender.acquire()
        assert lockfile.exists()


class TestJournal:
    def test_commit_retires_the_journal_file(self, tmp_path):
        journal = IngestJournal(tmp_path)
        journal.begin("abc123")
        journal.record_snapshot("alpha", "m1", ["f1", "f2"])
        journal.record_catalog("def456")
        path = journal.path
        journal.commit()
        assert not path.exists()
        assert pending_transactions(tmp_path) == []

    def test_interrupted_journal_reads_back(self, tmp_path):
        journal = IngestJournal(tmp_path)
        journal.begin("abc123")
        journal.record_snapshot("alpha", "m1", ["f2", "f1"])
        journal.close()  # crashed: no commit, file stays

        (state,) = pending_transactions(tmp_path)
        assert state.txn_id == journal.txn_id
        assert not state.committed and not state.torn_tail
        assert state.catalog_hash_before == "abc123"
        assert state.catalog_intent is None
        assert state.objects == {"f1", "f2"}
        assert state.manifests == {("alpha", "m1")}

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = IngestJournal(tmp_path)
        journal.begin(None)
        journal.record_snapshot("alpha", "m1", ["f1"])
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"record": "cat')  # append cut off mid-record

        state = read_journal(journal.path)
        assert state.torn_tail
        assert state.snapshots and state.objects == {"f1"}
        assert not state.committed

    def test_pending_journal_blocks_ingest_until_repair(self, tmp_path, tiny_dataset):
        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        leftover = IngestJournal(archive.root)
        leftover.begin(archive.catalog_hash())
        leftover.close()

        with pytest.raises(ArchiveError, match="archive repair"):
            ArchiveWriter(archive)
        # The refusing constructor must not leak its lock.
        assert read_lock(archive.root) is None

        repair_archive(archive)
        ingest_dataset(archive, tiny_dataset)  # accepted again


class TestKillMatrix:
    def test_every_ingest_site_fires(self, tmp_path, tiny_dataset):
        archive = Archive(tmp_path / "arch", create=True)
        sites = record_sites(lambda: ingest_dataset(archive, tiny_dataset))
        assert set(sites) == set(INGEST_SITES)

    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("site", INGEST_SITES)
    def test_crash_repair_reingest_converges(
        self, tmp_path, tiny_dataset, undamaged_hash, site, style
    ):
        archive = Archive(tmp_path / "arch", create=True)
        with crash_at(site, style=style) as injector:
            with pytest.raises(SimulatedCrash):
                ingest_dataset(archive, tiny_dataset)
        assert injector.fired
        # A kill is not catchable cleanup: the lock survives the crash.
        assert read_lock(archive.root) is not None

        report = repair_archive(archive, force_unlock=True)
        assert not report.clean  # at minimum the stale lock was broken
        verification = verify_archive(archive)
        assert verification.ok, verification.summary()
        assert verification.stale_tmp == []

        ingest_dataset(archive, tiny_dataset)
        assert archive.catalog_hash() == undamaged_hash

    def test_crashed_writer_still_excludes_new_ingests(self, tmp_path, tiny_dataset):
        archive = Archive(tmp_path / "arch", create=True)
        with crash_at("catalog:replace"):
            with pytest.raises(SimulatedCrash):
                ingest_dataset(archive, tiny_dataset)
        assert pending_transactions(archive.root)

        # The "dead" writer's pid is this live test process, so a new
        # ingest backs off behind the lock and gives up.
        with pytest.raises(ArchiveLockError):
            ingest_dataset(
                archive,
                tiny_dataset,
                lock_policy=FAST_POLICY,
                lock_sleep=lambda _: None,
            )

        repair_archive(archive, force_unlock=True)
        ingest_dataset(archive, tiny_dataset)

    def test_chaos_plan_matrix_is_deterministic(self, tmp_path, tiny_dataset):
        archive = Archive(tmp_path / "arch", create=True)
        sites = record_sites(lambda: ingest_dataset(archive, tiny_dataset))
        plan = ChaosPlan(seed="pr4")
        matrix = plan.matrix(sites)
        assert matrix == plan.matrix(sites)
        assert {point.site for point, _ in matrix} == set(INGEST_SITES)
        assert all(style in STYLES for _, style in matrix)


class TestRepairRefusesLiveWriter:
    def test_repair_vs_live_lock_raises_archive_lock_error(self, tmp_path, tiny_dataset):
        """Regression: repair must never run under a live writer.

        The lock holder here is this very test process — indisputably
        alive — so ``repair_archive`` without ``--force-unlock`` has to
        refuse with :class:`ArchiveLockError`, naming the pid and the
        remedy, and leave the lock untouched.
        """
        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        lock = WriterLock(archive.root, owner="live-writer")
        lock.acquire()
        try:
            with pytest.raises(ArchiveLockError, match="live writer") as excinfo:
                repair_archive(archive)
            assert str(os.getpid()) in str(excinfo.value)
            assert "--force-unlock" in str(excinfo.value)
            info = read_lock(archive.root)
            assert info is not None and info.owner == "live-writer"
        finally:
            lock.release()


class TestRepairHealsWatchState:
    def test_stale_index_is_rebuilt(self, tmp_path, tiny_dataset):
        """An index left behind by an older catalog is torn state: repair
        must rebuild it to match the current catalog hash."""
        archive = Archive(tmp_path / "arch", create=True)
        path = binary_index_path(archive)
        ingest_dataset(archive, tiny_dataset, providers=["alpha"])
        older = path.read_bytes()  # trust.bin encoded for the older catalog
        ingest_dataset(archive, tiny_dataset)
        fresh = path.read_bytes()
        path.write_bytes(older)
        assert read_binary_index(archive, archive.catalog_hash()) is None

        report = repair_archive(archive)
        assert report.index_healed
        assert path.read_bytes() == fresh
        assert read_binary_index(archive, archive.catalog_hash()) is not None
        assert repair_archive(archive).clean  # idempotent

    def test_damaged_checkpoints_are_quarantined(self, tmp_path, tiny_dataset):
        from repro.archive import CheckpointStore
        from repro.archive.repair import QUARANTINE_DIR

        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        store = CheckpointStore(archive.root)
        store.checkpoints_path.parent.mkdir(parents=True, exist_ok=True)
        store.checkpoints_path.write_bytes(b'{"schema": 1, "cursors": [tor')

        report = repair_archive(archive)
        assert report.checkpoints_reset
        assert not store.checkpoints_path.exists()
        parked = archive.root / QUARANTINE_DIR / "watch" / "checkpoints.corrupt.json"
        assert parked.exists()
        # A watcher starting now sees clean (empty) checkpoints.
        fresh = CheckpointStore(archive.root)
        assert fresh.load() == {}
        assert fresh.damaged is False
        assert repair_archive(archive).clean


class TestLegacyIndexFiles:
    """Archives written when the index was also persisted as JSON."""

    LEGACY = ("fingerprints.json", "timelines.json")

    def _with_legacy_files(self, tmp_path, tiny_dataset) -> Archive:
        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        for name in self.LEGACY:
            stale = {"schema": 1, "catalog_hash": "0" * 64}
            (archive.root / "index" / name).write_text(json.dumps(stale) + "\n")
        return archive

    def test_gc_removes_and_reports_them(self, tmp_path, tiny_dataset):
        archive = self._with_legacy_files(tmp_path, tiny_dataset)
        index_dir = archive.root / "index"
        assert repair_archive(archive).clean  # nothing reads them
        assert verify_archive(archive).ok

        dry = gc_archive(archive, dry_run=True)
        expected = tuple(f"index/{name}" for name in self.LEGACY)
        assert dry.legacy_index_removed == expected
        assert "2 legacy index files" in dry.summary()
        assert all((index_dir / name).exists() for name in self.LEGACY)

        wet = gc_archive(archive)
        assert wet.legacy_index_removed == expected
        assert "removed legacy index file index/timelines.json" in wet.summary()
        assert sorted(path.name for path in index_dir.iterdir()) == ["trust.bin"]
        assert gc_archive(archive).legacy_index_removed == ()

    def test_repair_looks_only_at_trust_bin(self, tmp_path, tiny_dataset):
        """Legacy files beside a missing trust.bin are no index damage."""
        archive = self._with_legacy_files(tmp_path, tiny_dataset)
        binary_index_path(archive).unlink()
        report = repair_archive(archive)
        assert not report.index_healed
        assert not binary_index_path(archive).exists()


class TestBitrotQuarantine:
    def _damaged(self, root: Path, tiny_dataset, sample_certs) -> tuple[Archive, str]:
        archive = Archive(root / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        fingerprint = _gamma_fingerprint(sample_certs)
        _flip(archive.objects.path_for(fingerprint))
        return archive, fingerprint

    def test_default_query_fails_loudly(self, tmp_path, tiny_dataset, sample_certs):
        archive, _ = self._damaged(tmp_path, tiny_dataset, sample_certs)
        with pytest.raises(ArchiveCorruptionError, match="archive repair"):
            ArchiveQuery(archive).history("beta")

    def test_degraded_query_serves_the_intact_rest(
        self, tmp_path, tiny_dataset, sample_certs
    ):
        archive, _ = self._damaged(tmp_path, tiny_dataset, sample_certs)
        query = ArchiveQuery(archive, allow_degraded=True)
        assert len(query.history("beta")) == 0
        assert len(query.history("alpha")) == 2
        assert [(p, v) for p, v, _ in query.skipped] == [("beta", "10")]

    def test_repair_quarantines_and_degraded_reports(
        self, tmp_path, tiny_dataset, sample_certs, undamaged_hash
    ):
        archive, fingerprint = self._damaged(tmp_path, tiny_dataset, sample_certs)
        report = repair_archive(archive)
        assert report.objects_quarantined == 1
        assert report.snapshots_quarantined == 1
        assert report.index_rebuilt

        verification = verify_archive(archive)
        assert verification.ok, verification.summary()

        # The damaged bytes are parked for forensics, not destroyed.
        quarantine = archive.root / QUARANTINE_DIR
        assert (quarantine / "objects" / f"{fingerprint}.der").exists()
        (record,) = read_quarantine(archive.root)
        assert (record.provider, record.version) == ("beta", "10")
        assert fingerprint in record.reason

        query = ArchiveQuery(archive, allow_degraded=True)
        assert query.dataset().total_snapshots() == 2
        assert [r.key for r in query.quarantined] == [record.key]

        # Repair is idempotent, and a re-ingest restores everything —
        # including dropping the snapshot from the quarantine report.
        assert repair_archive(archive).clean
        ingest_dataset(archive, tiny_dataset)
        assert archive.catalog_hash() == undamaged_hash
        assert ArchiveQuery(archive).quarantined == []

    def test_missing_object_names_the_remedy(self, tmp_path, tiny_dataset, sample_certs):
        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        fingerprint = _gamma_fingerprint(sample_certs)
        archive.objects.path_for(fingerprint).unlink()

        with pytest.raises(ArchiveCorruptionError) as excinfo:
            archive.objects.get(fingerprint)
        assert "missing" in str(excinfo.value)
        assert "repro-roots archive repair" in str(excinfo.value)
        assert not verify_archive(archive).ok


class TestTmpSweep:
    def test_verify_names_but_gc_removes_debris(self, tmp_path, tiny_dataset):
        archive = Archive(tmp_path / "arch", create=True)
        ingest_dataset(archive, tiny_dataset)
        for k in range(3):
            (archive.root / f"debris-{k}.tmp").write_bytes(b"half-written")

        report = verify_archive(archive)
        assert report.ok  # debris never makes an archive CORRUPT
        assert len(report.stale_tmp) == 3
        assert any("stale temp file" in line for line in report.problem_lines())

        dry = gc_archive(archive, dry_run=True)
        assert dry.tmp_removed == 3
        assert len(stray_tmp_files(archive.root)) == 3

        wet = gc_archive(archive)
        assert wet.tmp_removed == 3
        assert stray_tmp_files(archive.root) == []


class TestRepairCLI:
    def test_repair_heals_a_crashed_archive(self, tmp_path, tiny_dataset, capsys):
        root = tmp_path / "arch"
        archive = Archive(root, create=True)
        with crash_at("manifest:replaced", style="torn"):
            with pytest.raises(SimulatedCrash):
                ingest_dataset(archive, tiny_dataset)

        assert main(["archive", "repair", str(root), "--force-unlock"]) == 0
        out = capsys.readouterr().out
        assert "repair:" in out and "OK" in out
        assert main(["archive", "verify", str(root)]) == 0

    def test_live_lock_refuses_without_force(self, tmp_path, tiny_dataset, capsys):
        root = tmp_path / "arch"
        archive = Archive(root, create=True)
        ingest_dataset(archive, tiny_dataset)
        lock = WriterLock(root)
        lock.acquire()
        try:
            assert main(["archive", "repair", str(root)]) == 1
            assert "--force-unlock" in capsys.readouterr().err
            assert main(["archive", "repair", str(root), "--force-unlock"]) == 0
        finally:
            lock.release()

    def test_degraded_query_reports_skips(self, tmp_path, tiny_dataset, sample_certs, capsys):
        root = tmp_path / "arch"
        archive = Archive(root, create=True)
        ingest_dataset(archive, tiny_dataset)
        fingerprint = _gamma_fingerprint(sample_certs)
        ArchiveQuery(archive)  # persist the index while everything is healthy
        # trusted_on consults manifests, never DER: damage beta's manifest.
        (path,) = [p for prov, _, p in archive.manifest_files() if prov == "beta"]
        _flip(path)

        rc = main(
            [
                "archive",
                "query",
                str(root),
                "--fingerprint",
                fingerprint,
                "--date",
                "2021-02-01",
                "--degraded",
            ]
        )
        assert rc == 0
        assert "skipped beta@10" in capsys.readouterr().out


@given(
    site=st.sampled_from(INGEST_SITES),
    style=st.sampled_from(STYLES),
    hit=st.integers(min_value=1, max_value=3),
)
@ROBUSTNESS_SETTINGS
def test_repair_is_idempotent(tiny_dataset, site, style, hit):
    """After any crash (or none: the hit may never fire), a second
    repair pass finds nothing left to do and verify stays clean."""
    with tempfile.TemporaryDirectory(prefix="repro-archive-chaos-") as tmp:
        archive = Archive(Path(tmp) / "arch", create=True)
        try:
            with crash_at(site, hit=hit, style=style):
                ingest_dataset(archive, tiny_dataset)
        except SimulatedCrash:
            pass
        repair_archive(archive, force_unlock=True)
        assert repair_archive(archive, force_unlock=True).clean
        assert verify_archive(archive).ok

"""The content-addressed archive: ingest, query, verify, corruption.

Round-trip coverage ingests the full simulated corpus once (session
scope), reconstructs every snapshot, and checks fingerprint-set
equality against the in-memory dataset.  Corruption coverage works on
throwaway copies: flip one byte in a stored object and assert that
``archive verify`` names the damaged object and that queries touching
it fail loudly instead of returning plausible garbage.
"""

from __future__ import annotations

import shutil
from datetime import date

import pytest

from repro.archive import (
    Archive,
    ArchiveQuery,
    ContentStore,
    SnapshotManifest,
    gc_archive,
    ingest_dataset,
    ingest_history,
    load_index,
    verify_archive,
)
from repro.archive.binindex import BinaryIndex, binary_index_path, persist_binary_index
from repro.archive.index import ArchiveIndex, TimelineEntry
from repro.archive.query import _LRUCache
from repro.errors import ArchiveCorruptionError, ArchiveError, ArchiveStaleError
from repro.store.purposes import TrustLevel, TrustPurpose


@pytest.fixture(scope="session")
def archive_dir(dataset, tmp_path_factory):
    """The full corpus, ingested once for every read-only test."""
    root = tmp_path_factory.mktemp("archive") / "corpus"
    archive = Archive(root, create=True)
    ingest_dataset(archive, dataset)
    return root


@pytest.fixture(scope="session")
def query(archive_dir):
    return ArchiveQuery(archive_dir)


def _copy_archive(archive_dir, tmp_path) -> Archive:
    """A disposable clone for tests that damage or mutate the archive."""
    clone = tmp_path / "clone"
    shutil.copytree(archive_dir, clone)
    return Archive(clone)


class TestContentStore:
    def test_put_is_idempotent_and_sharded(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        first = store.put(b"hello world")
        again = store.put(b"hello world")
        assert first.created and not again.created
        assert first.fingerprint == again.fingerprint
        assert store.path_for(first.fingerprint).parent.name == first.fingerprint[:2]
        assert store.get(first.fingerprint) == b"hello world"
        assert len(store) == 1

    def test_get_verifies_content_address(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        fingerprint = store.put(b"payload").fingerprint
        path = store.path_for(fingerprint)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveCorruptionError) as excinfo:
            store.get(fingerprint)
        assert fingerprint in str(excinfo.value)
        assert excinfo.value.fingerprint == fingerprint
        # verify=False is the escape hatch for forensics, not queries
        assert store.get(fingerprint, verify=False) == bytes(data)

    def test_missing_object_raises(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        with pytest.raises(ArchiveError, match="missing"):
            store.get("ab" * 32)

    def test_rejects_non_fingerprint_names(self, tmp_path):
        store = ContentStore(tmp_path / "objects")
        with pytest.raises(ArchiveError, match="not a SHA-256"):
            store.path_for("../../etc/passwd")


class TestIngest:
    def test_full_corpus_roundtrip(self, dataset, query):
        """Every snapshot reconstructs with identical fingerprint sets."""
        for provider in dataset.providers:
            rebuilt_history = query.history(provider)
            originals = dataset[provider].snapshots
            assert len(rebuilt_history) == len(originals)
            for original, rebuilt in zip(originals, rebuilt_history):
                assert rebuilt.fingerprints() == original.fingerprints()
                assert rebuilt.tls_fingerprints() == original.tls_fingerprints()
                assert rebuilt == original  # full equality: trust bits too

    def test_reingest_is_byte_idempotent(self, dataset, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        before = archive.catalog_hash()
        report = ingest_dataset(archive, dataset)
        assert report.objects_written == 0
        assert report.manifests_written == 0
        assert report.snapshots_unchanged == report.snapshots_seen
        assert archive.catalog_hash() == before

    def test_incremental_ingest_only_writes_new(self, dataset, tmp_path):
        archive = Archive(tmp_path / "incremental", create=True)
        first_provider = dataset.providers[0]
        initial = ingest_history(archive, dataset[first_provider])
        assert initial.snapshots_added == len(dataset[first_provider])
        full = ingest_dataset(archive, dataset)
        assert full.snapshots_unchanged == len(dataset[first_provider])
        assert full.snapshots_added == dataset.total_snapshots() - len(dataset[first_provider])

    def test_objects_deduplicate_across_providers(self, dataset, archive_dir):
        archive = Archive(archive_dir)
        unique = {
            e.certificate.fingerprint_sha256
            for p in dataset.providers
            for s in dataset[p]
            for e in s
        }
        assert set(archive.objects.fingerprints()) == unique
        assert len(archive.objects) < dataset.total_snapshots()  # massive dedup


class TestManifest:
    def test_manifest_preserves_trust_context(self, dataset):
        snapshot = dataset["nss"].latest()
        manifest = SnapshotManifest.from_snapshot(snapshot)
        restored = SnapshotManifest.from_payload(manifest.to_payload())
        assert restored == manifest
        assert restored.manifest_id == manifest.manifest_id
        assert restored.fingerprints() == snapshot.fingerprints()
        assert restored.fingerprints(TrustPurpose.SERVER_AUTH) == snapshot.tls_fingerprints()

    def test_manifest_id_is_content_address(self, dataset):
        a = SnapshotManifest.from_snapshot(dataset["nss"].latest())
        b = SnapshotManifest.from_snapshot(dataset["nss"].snapshots[0])
        assert a.manifest_id != b.manifest_id
        assert a.manifest_id == SnapshotManifest.from_payload(a.to_payload()).manifest_id


class TestManifestDecode:
    """The bulk-scan decode path: purpose filters straight from stored rows."""

    PURPOSES = (None, *TrustPurpose)

    @staticmethod
    def _reference(manifest, purpose):
        return frozenset(
            e.fingerprint
            for e in manifest.entries
            if purpose is None or e.level_for(purpose) is TrustLevel.TRUSTED
        )

    def test_fingerprints_match_entries_before_and_after_materializing(self, archive_dir):
        archive = Archive(archive_dir)
        for row in archive.read_catalog():
            reference = archive.read_manifest(row.provider, row.manifest_id)
            lazy = archive.read_manifest(row.provider, row.manifest_id)
            materialized = archive.read_manifest(row.provider, row.manifest_id)
            materialized.entries  # noqa: B018 - materialize before filtering
            for purpose in self.PURPOSES:
                expected = self._reference(reference, purpose)
                assert lazy.fingerprints(purpose) == expected, (row.key, purpose)
                assert materialized.fingerprints(purpose) == expected, (row.key, purpose)
            lazy.entries  # noqa: B018 - and the memoized sets still agree afterwards
            for purpose in self.PURPOSES:
                assert lazy.fingerprints(purpose) == self._reference(lazy, purpose)

    def test_purpose_filter_matches_live_snapshots(self, dataset, archive_dir):
        archive = Archive(archive_dir)
        for provider in ("nss", "microsoft", "apple"):
            for snapshot in dataset[provider].snapshots[-3:]:
                manifest_id = SnapshotManifest.from_snapshot(snapshot).manifest_id
                stored = archive.read_manifest(provider, manifest_id)
                for purpose in self.PURPOSES:
                    assert stored.fingerprints(purpose) == snapshot.fingerprints(purpose)

    def test_first_stored_level_decides(self):
        """Row filter and entry records agree on a repeated purpose."""
        payload = {
            "provider": "p",
            "version": "1",
            "taken_at": "2020-01-01",
            "entries": [
                {
                    "fingerprint": "ab" * 32,
                    "trust": [["server-auth", "distrusted"], ["server-auth", "trusted"]],
                    "distrust_after": None,
                },
                {
                    "fingerprint": "cd" * 32,
                    "trust": [["email", "trusted"], ["server-auth", "trusted"]],
                    "distrust_after": None,
                },
            ],
        }
        manifest = SnapshotManifest.from_payload(payload)
        assert manifest.fingerprints(TrustPurpose.SERVER_AUTH) == {"cd" * 32}
        first, second = manifest.entries
        assert first.level_for(TrustPurpose.SERVER_AUTH) is TrustLevel.DISTRUSTED
        assert not first.is_trusted_for(TrustPurpose.SERVER_AUTH)
        assert second.is_trusted_for(TrustPurpose.EMAIL_PROTECTION)

    def test_disk_read_equals_snapshot_twin(self, dataset, archive_dir):
        archive = Archive(archive_dir)
        for snapshot in (dataset["nss"].latest(), dataset["java"].snapshots[0]):
            twin = SnapshotManifest.from_snapshot(snapshot)
            stored = archive.read_manifest(snapshot.provider, twin.manifest_id)
            assert stored.serialize() == twin.serialize()
            assert stored.manifest_id == twin.manifest_id
            assert stored == twin
            assert len(stored) == len(twin)
            # Materialized, it still re-encodes to the same canonical bytes.
            assert stored.serialize() == twin.serialize()
            assert stored.get(twin.entries[0].fingerprint) == twin.entries[0]

    def test_cached_manifest_holds_one_form(self, archive_dir):
        archive = Archive(archive_dir)
        row = archive.read_catalog()[0]
        manifest = archive.read_manifest(row.provider, row.manifest_id)
        manifest.fingerprints(TrustPurpose.SERVER_AUTH)
        # After one view the decoded rows are gone; the verified bytes remain.
        assert manifest._rows is None and manifest._serialized is not None
        manifest.entry_index  # noqa: B018 - a point lookup materializes
        assert manifest._rows is None and manifest._serialized is None
        assert manifest._entries is not None

    def test_manifest_is_immutable(self, dataset):
        manifest = SnapshotManifest.from_snapshot(dataset["nss"].latest())
        with pytest.raises(AttributeError):
            manifest.provider = "other"

    def test_flipped_byte_raises_on_read(self, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        row = archive.read_catalog()[0]
        path = archive.manifest_path(row.provider, row.manifest_id)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveCorruptionError) as excinfo:
            archive.read_manifest(row.provider, row.manifest_id)
        assert excinfo.value.fingerprint == row.manifest_id
        with pytest.raises(ArchiveCorruptionError):
            ArchiveQuery(archive).incidence(sparse=True)

    def test_malformed_rows_raise_archive_error(self):
        payload = {
            "provider": "p",
            "version": "1",
            "taken_at": "2020-01-01",
            "entries": [{"fingerprint": "ab" * 32, "distrust_after": None}],
        }
        with pytest.raises(ArchiveError, match="malformed manifest payload"):
            SnapshotManifest.from_payload(payload).fingerprints(TrustPurpose.SERVER_AUTH)
        with pytest.raises(ArchiveError, match="malformed manifest payload"):
            SnapshotManifest.from_payload(payload).entries  # noqa: B018
        with pytest.raises(ArchiveError, match="malformed manifest payload"):
            SnapshotManifest.from_payload({**payload, "entries": {}})


class TestQuery:
    def test_point_in_time_matches_live_histories(self, dataset, query):
        """trusted_on agrees with StoreHistory.at() on every probe."""
        when = date(2018, 6, 1)
        fingerprint = next(iter(dataset["nss"].at(when).tls_fingerprints()))
        observations = {o.provider: o for o in query.trusted_on(fingerprint, when)}
        for provider in dataset.providers:
            live = dataset[provider].at(when)
            if live is None:
                assert provider not in observations
                continue
            expected = fingerprint in live.tls_fingerprints()
            assert observations[provider].present == expected, provider
            assert observations[provider].version == live.version

    def test_snapshot_at_resolves_in_force_release(self, dataset, query):
        when = date(2016, 3, 15)
        for provider in dataset.providers:
            live = dataset[provider].at(when)
            rebuilt = query.snapshot_at(provider, when)
            if live is None:
                assert rebuilt is None
            else:
                assert rebuilt == live

    def test_ever_shipped_covers_all_occurrences(self, dataset, query):
        fingerprint = next(iter(dataset["nss"].latest().fingerprints()))
        postings = query.ever_shipped(fingerprint)
        expected = sum(
            1
            for p in dataset.providers
            for s in dataset[p]
            if fingerprint in s.fingerprints()
        )
        assert len(postings) == expected

    def test_diff_matches_live_sets(self, dataset, query):
        when = date(2019, 1, 1)
        diff = query.diff("nss", "microsoft", when=when)
        live_a = dataset["nss"].at(when).tls_fingerprints()
        live_b = dataset["microsoft"].at(when).tls_fingerprints()
        assert diff.only_a == live_a - live_b
        assert diff.only_b == live_b - live_a
        assert diff.shared == live_a & live_b
        assert 0.0 <= diff.jaccard_distance <= 1.0

    def test_removal_lags_match_trusted_until(self, dataset, query, slug_fingerprints):
        fingerprint = slug_fingerprints["diginotar-root"]
        lags = {lag.provider: lag for lag in query.removal_lags(fingerprint)}
        for provider, lag in lags.items():
            assert dataset[provider].trusted_until(fingerprint) == lag.removed_on
        reference = date(2011, 9, 1)
        with_lag = query.removal_lags(fingerprint, reference=reference)
        for lag in with_lag:
            if lag.removed_on is not None:
                assert lag.lag_days == (lag.removed_on - reference).days

    def test_dataset_reconstruction_is_identity(self, dataset, query):
        rebuilt = query.dataset(providers=["alpine"])
        assert rebuilt["alpine"].snapshots == dataset["alpine"].snapshots

    def test_distance_matrix_matches_live(self, dataset, query):
        import numpy as np

        from repro.analysis import collect_snapshots, distance_matrix

        since = date(2011, 1, 1)
        live = distance_matrix(collect_snapshots(dataset, since=since))
        archived = query.distance_matrix(since=since)
        assert archived.labels == live.labels
        assert float(np.abs(archived.matrix - live.matrix).max()) == 0.0

    def test_sparse_incidence_matches_dense(self, query):
        import numpy as np

        since = date(2015, 1, 1)
        dense = query.incidence(since=since)
        sparse = query.incidence(since=since, sparse=True)
        assert sparse.labels == dense.labels
        assert sparse.fingerprints == dense.fingerprints
        assert np.array_equal(sparse.to_dense().matrix, dense.matrix)
        # CSR invariants: monotone row pointers, sorted in-row columns.
        assert (np.diff(sparse.indptr) >= 0).all()
        for row in range(min(sparse.n_rows, 5)):
            columns = sparse.indices[sparse.indptr[row] : sparse.indptr[row + 1]]
            assert (np.diff(columns) > 0).all()

    def test_blocked_distance_matrix_matches_dense(self, query):
        import numpy as np

        since = date(2015, 1, 1)
        for metric in ("jaccard", "overlap"):
            dense = query.distance_matrix(metric=metric, since=since)
            blocked = query.distance_matrix(
                metric=metric, since=since, blocked=True, block_rows=37
            )
            assert blocked.labels == dense.labels
            assert float(np.abs(blocked.matrix - dense.matrix).max()) == 0.0

    def test_warm_queries_hit_caches(self, archive_dir):
        engine = ArchiveQuery(archive_dir)
        when = date(2018, 6, 1)
        fingerprint = sorted(engine.index.postings)[0]
        engine.trusted_on(fingerprint, when)
        misses = engine.cache_stats()["manifest"].misses
        engine.trusted_on(fingerprint, when)
        stats = engine.cache_stats()["manifest"]
        assert stats.misses == misses  # second pass never touched disk
        assert stats.hits > 0
        assert 0.0 < stats.hit_rate <= 1.0

    def test_unknown_provider_and_version_raise(self, query):
        with pytest.raises(ArchiveError, match="no provider"):
            query.timeline("no-such-provider")
        with pytest.raises(ArchiveError, match="no version"):
            query.release("nss", "v999.999")


class TestIndex:
    def test_index_is_persisted_and_reloaded(self, archive_dir):
        archive = Archive(archive_dir)
        index_dir = archive.root / "index"
        assert (index_dir / "fingerprints.json").exists()
        assert (index_dir / "timelines.json").exists()
        loaded = load_index(archive)
        assert loaded.catalog_hash == archive.catalog_hash()
        assert loaded.providers == sorted(loaded.timelines)

    def test_stale_index_rebuilds_after_new_ingest(self, dataset, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        stale = load_index(archive)
        # Simulate new data arriving: drop one provider's rows and re-ingest.
        rows = [r for r in archive.read_catalog() if r.provider != "alpine"]
        archive.write_catalog(rows)
        rebuilt = load_index(archive)
        assert rebuilt.catalog_hash != stale.catalog_hash
        assert "alpine" not in rebuilt.timelines
        ingest_dataset(archive, dataset)
        full = load_index(archive)
        assert "alpine" in full.timelines

    def test_in_force_before_first_release_is_none(self, query):
        assert query.index.in_force("nss", date(1999, 1, 1)) is None

    def test_in_force_empty_timeline_is_none(self):
        """A provider with zero snapshots resolves to no release — the
        empty timeline must never reach the bisect arithmetic."""
        index = ArchiveIndex(catalog_hash="0" * 64, postings={}, timelines={"p": ()})
        assert index.in_force("p", date(2020, 1, 1)) is None

    def test_in_force_predating_first_release_never_wraps_to_last(self):
        """``when`` before the first release must be None, not silently
        index ``-1`` and serve the provider's *latest* snapshot."""
        timeline = (
            TimelineEntry(taken_at=date(2020, 1, 1), version="v1", manifest_id="m1", entries=1),
            TimelineEntry(taken_at=date(2021, 1, 1), version="v2", manifest_id="m2", entries=1),
        )
        index = ArchiveIndex(catalog_hash="0" * 64, postings={}, timelines={"p": timeline})
        assert index.in_force("p", date(2019, 12, 31)) is None
        assert index.in_force("p", date(2020, 1, 1)).version == "v1"  # on-date inclusive
        assert index.in_force("p", date(2020, 6, 1)).version == "v1"
        assert index.in_force("p", date(2022, 1, 1)).version == "v2"


def _query_answers(engine: ArchiveQuery, fingerprints, dates) -> dict:
    """Every read-path answer the default-loader contract covers."""
    dense = engine.incidence()
    sparse = engine.incidence(sparse=True)
    distances = engine.distance_matrix()
    return {
        "incidence": (dense.labels, dense.fingerprints, dense.matrix.tobytes()),
        "sparse": (
            sparse.labels,
            sparse.fingerprints,
            sparse.indptr.tobytes(),
            sparse.indices.tobytes(),
        ),
        "distance_matrix": (distances.labels, distances.matrix.tobytes()),
        "trusted_on_many": [
            engine.trusted_on_many(fingerprints, when, purpose=purpose)
            for when in dates
            for purpose in (TrustPurpose.SERVER_AUTH, None)
        ],
        "ever_shipped": [engine.ever_shipped(fp) for fp in fingerprints],
        "removal_lags": [
            engine.removal_lags(fp, reference=date(2015, 1, 1)) for fp in fingerprints
        ],
        "quarantined": engine.quarantined,
    }


class TestDefaultLoader:
    """``ArchiveQuery`` opens ``trust.bin`` and answers as the JSON index does."""

    DATES = (date(2012, 3, 1), date(2018, 6, 1), date(2021, 1, 1))

    @pytest.fixture(scope="class")
    def probes(self, archive_dir):
        fingerprints = sorted(load_index(Archive(archive_dir)).postings)[::40]
        return fingerprints + ["00" * 32]  # plus one the archive never saw

    @pytest.fixture(scope="class")
    def reference(self, archive_dir, probes):
        engine = ArchiveQuery(archive_dir, index_loader=load_index)
        assert isinstance(engine.index, ArchiveIndex)
        return _query_answers(engine, probes, self.DATES)

    def test_default_opens_binary_index(self, archive_dir):
        assert isinstance(ArchiveQuery(archive_dir).index, BinaryIndex)

    def test_answers_identical_to_json_loader(self, archive_dir, probes, reference):
        answers = _query_answers(ArchiveQuery(archive_dir), probes, self.DATES)
        for key, expected in reference.items():
            assert answers[key] == expected, key

    def test_missing_trust_bin_is_rebuilt(self, archive_dir, probes, reference, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        binary_index_path(archive).unlink()
        engine = ArchiveQuery(archive)
        assert isinstance(engine.index, BinaryIndex)
        assert binary_index_path(archive).exists()
        assert _query_answers(engine, probes, self.DATES) == reference

    def test_stale_trust_bin_is_rebuilt(self, archive_dir, probes, reference, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        index = load_index(archive)
        stale = ArchiveIndex(
            catalog_hash="0" * 64, postings=index.postings, timelines=index.timelines
        )
        persist_binary_index(archive, stale)
        engine = ArchiveQuery(archive)
        assert engine.index.catalog_hash == archive.catalog_hash()
        assert BinaryIndex(binary_index_path(archive)).catalog_hash == archive.catalog_hash()
        assert _query_answers(engine, probes, self.DATES) == reference


class TestLRUCache:
    def test_zero_maxsize_disables_caching(self):
        cache = _LRUCache(0)
        cache.put("key", "value")
        assert cache.get("key") is None  # nothing was stored
        stats = cache.stats()
        assert stats.size == 0 and stats.hits == 0 and stats.misses == 1

    def test_negative_maxsize_is_a_caller_bug(self):
        with pytest.raises(ArchiveError, match="maxsize must be >= 0"):
            _LRUCache(-1)

    def test_positive_maxsize_evicts_least_recent(self):
        cache = _LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_query_with_caches_disabled_still_answers(self, dataset, archive_dir):
        engine = ArchiveQuery(archive_dir, manifest_cache=0, snapshot_cache=0)
        provider = dataset.providers[0]
        version = engine.timeline(provider)[-1].version
        first = engine.snapshot(provider, version)
        second = engine.snapshot(provider, version)
        assert first.tls_fingerprints() == second.tls_fingerprints()
        stats = engine.cache_stats()
        assert stats["snapshot"].hits == 0 and stats["snapshot"].misses == 2


class TestStaleCatalogDetection:
    def _seeded(self, dataset, tmp_path, **query_options):
        archive = Archive(tmp_path / "staleness", create=True)
        providers = dataset.providers
        ingest_dataset(archive, dataset, providers=providers[:1])
        return archive, providers, ArchiveQuery(archive, **query_options)

    def test_reingest_under_live_query_raises_stale(self, dataset, tmp_path):
        archive, providers, engine = self._seeded(dataset, tmp_path)
        pinned = engine.catalog_hash
        assert engine.timeline(providers[0])  # fresh: served normally
        ingest_dataset(archive, dataset, providers=providers[:2])
        with pytest.raises(ArchiveStaleError) as excinfo:
            engine.timeline(providers[0])
        assert excinfo.value.pinned == pinned
        assert excinfo.value.current == archive.catalog_hash()
        assert excinfo.value.current != pinned

    def test_refresh_on_stale_reloads_and_serves_new_catalog(self, dataset, tmp_path):
        archive, providers, engine = self._seeded(
            dataset, tmp_path, refresh_on_stale=True
        )
        assert engine.providers == [providers[0]]
        ingest_dataset(archive, dataset, providers=providers[:2])
        # The next query transparently reloads instead of raising.
        assert engine.timeline(providers[1])
        assert engine.catalog_hash == archive.catalog_hash()
        assert sorted(engine.providers) == sorted(providers[:2])

    def test_refresh_mode_dataset_follows_reingest(self, dataset, tmp_path):
        """``dataset()`` re-checks freshness before it lists providers."""
        archive, providers, engine = self._seeded(
            dataset, tmp_path, refresh_on_stale=True
        )
        assert engine.dataset().providers == [providers[0]]
        ingest_dataset(archive, dataset, providers=providers[:2])
        assert sorted(engine.dataset().providers) == sorted(providers[:2])
        # A provider dropped from the catalog disappears instead of raising.
        archive.write_catalog(
            [r for r in archive.read_catalog() if r.provider != providers[0]]
        )
        assert engine.dataset().providers == [providers[1]]

    def test_byte_identical_rewrite_is_not_stale(self, dataset, tmp_path):
        archive, providers, engine = self._seeded(dataset, tmp_path)
        pinned = engine.catalog_hash
        # Rewrite the same rows: a new file (stat stamp changes) with the
        # same bytes — the rehash path must conclude "not stale".
        archive.write_catalog(list(archive.read_catalog()))
        assert engine.timeline(providers[0])
        assert engine.catalog_hash == pinned


class TestCorruption:
    def test_verify_names_single_flipped_byte(self, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        victim = next(iter(archive.objects.fingerprints()))
        path = archive.objects.path_for(victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01  # a single flipped bit mid-file
        path.write_bytes(bytes(data))

        report = verify_archive(archive)
        assert not report.ok
        assert [fp for fp, _ in report.corrupt_objects] == [victim]
        assert any(victim in line for line in report.problem_lines())
        assert "CORRUPT" in report.summary()

    def test_query_fails_loudly_on_corrupt_object(self, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        engine = ArchiveQuery(archive)
        # Corrupt an object that the latest NSS snapshot references.
        fingerprint = sorted(
            engine._manifest("nss", engine.timeline("nss")[-1].manifest_id).entry_index
        )[0]
        path = archive.objects.path_for(fingerprint)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x80
        path.write_bytes(bytes(data))

        with pytest.raises(ArchiveCorruptionError) as excinfo:
            engine.snapshot("nss", engine.timeline("nss")[-1].version)
        assert excinfo.value.fingerprint == fingerprint

    def test_verify_detects_catalog_manifest_mismatch(self, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        rows = archive.read_catalog()
        rows[0] = type(rows[0])(
            provider=rows[0].provider,
            version=rows[0].version,
            taken_at=rows[0].taken_at,
            manifest_id=rows[0].manifest_id,
            entries=rows[0].entries + 5,  # catalog now lies about the count
        )
        archive.write_catalog(rows)
        report = verify_archive(archive)
        assert not report.ok
        assert len(report.mismatched_rows) == 1

    def test_verify_detects_missing_manifest(self, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        row = archive.read_catalog()[0]
        archive.manifest_path(row.provider, row.manifest_id).unlink()
        report = verify_archive(archive)
        assert not report.ok
        assert (row.provider, row.manifest_id) in report.missing_manifests


class TestGC:
    def test_gc_removes_only_orphans(self, dataset, archive_dir, tmp_path):
        archive = _copy_archive(archive_dir, tmp_path)
        orphan = archive.objects.put(b"not referenced by any manifest")
        assert orphan.created
        healthy = verify_archive(archive)
        assert healthy.orphan_objects == [orphan.fingerprint]

        dry = gc_archive(archive, dry_run=True)
        assert dry.objects_removed == 1 and dry.dry_run
        assert orphan.fingerprint in archive.objects  # dry run deleted nothing

        result = gc_archive(archive)
        assert result.objects_removed == 1
        assert orphan.fingerprint not in archive.objects
        # Nothing reachable was touched: the archive still verifies clean.
        after = verify_archive(archive)
        assert after.ok and after.orphan_count == 0

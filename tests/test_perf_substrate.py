"""The perf substrate: snapshot indexes, memoization, intern pool.

These are behavioral guarantees, not timings — the timings live in
the ``ordination`` bench suite (``repro-roots bench ordination``).
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.store import RootStoreSnapshot, StoreHistory, TrustEntry
from repro.store.purposes import TrustPurpose
from repro.x509.certificate import (
    Certificate,
    certificate_intern_stats,
    clear_certificate_intern_pool,
)


@pytest.fixture
def snapshot(sample_certs):
    return RootStoreSnapshot.build(
        "nss", date(2020, 1, 1), "1", [TrustEntry.make(c) for c in sample_certs]
    )


class TestSnapshotIndex:
    def test_get_matches_linear_scan(self, snapshot):
        for entry in snapshot.entries:
            assert snapshot.get(entry.fingerprint) is entry

    def test_get_missing(self, snapshot):
        assert snapshot.get("00" * 32) is None

    def test_contains_certificate_and_string(self, snapshot, sample_certs):
        assert sample_certs[0] in snapshot
        assert sample_certs[0].fingerprint_sha256 in snapshot
        assert "ff" * 32 not in snapshot
        assert 42 not in snapshot

    def test_index_is_built_once(self, snapshot):
        first = snapshot._entry_index
        assert snapshot._entry_index is first

    def test_fingerprints_memoized(self, snapshot):
        for purpose in (None, TrustPurpose.SERVER_AUTH, TrustPurpose.CODE_SIGNING):
            first = snapshot.fingerprints(purpose)
            assert snapshot.fingerprints(purpose) is first

    def test_memoized_fingerprints_correct(self, snapshot):
        assert snapshot.fingerprints() == frozenset(
            e.fingerprint for e in snapshot.entries
        )
        assert snapshot.fingerprints(TrustPurpose.SERVER_AUTH) == frozenset(
            e.fingerprint for e in snapshot.entries if e.is_tls_trusted
        )

    def test_equality_unaffected_by_caches(self, sample_certs):
        entries = [TrustEntry.make(c) for c in sample_certs]
        a = RootStoreSnapshot.build("nss", date(2020, 1, 1), "1", entries)
        b = RootStoreSnapshot.build("nss", date(2020, 1, 1), "1", entries)
        a.fingerprints()  # populate a's caches only
        a.get(entries[0].fingerprint)
        assert a == b


class TestHistoryVersionIndex:
    def test_contains_version_after_add(self, snapshot):
        history = StoreHistory("nss")
        history.add(snapshot)
        assert history.contains_version("1", date(2020, 1, 1))
        assert not history.contains_version("1", date(2020, 1, 2))
        assert not history.contains_version("2", date(2020, 1, 1))

    def test_contains_version_from_constructor(self, snapshot):
        history = StoreHistory("nss", snapshots=[snapshot])
        assert history.contains_version("1", date(2020, 1, 1))


class TestInternPool:
    def test_same_der_same_object(self, sample_cert):
        clear_certificate_intern_pool()
        first = Certificate.from_der(sample_cert.der)
        second = Certificate.from_der(sample_cert.der)
        assert first is second

    def test_cleared_pool_gives_fresh_instance(self, sample_cert):
        clear_certificate_intern_pool()
        pooled = Certificate.from_der(sample_cert.der)
        clear_certificate_intern_pool()
        fresh = Certificate.from_der(sample_cert.der)
        assert fresh is not pooled
        assert fresh == pooled

    def test_stats_count_hits_and_misses(self, sample_cert):
        clear_certificate_intern_pool()
        keep = [Certificate.from_der(sample_cert.der) for _ in range(5)]
        stats = certificate_intern_stats()
        assert stats.misses >= 1
        assert stats.hits >= 4
        assert stats.size >= 1
        assert 0.0 < stats.hit_rate <= 1.0
        assert keep  # retained so the weak pool cannot evaporate mid-test

    def test_clear_resets(self, sample_cert):
        keep = Certificate.from_der(sample_cert.der)
        clear_certificate_intern_pool()
        stats = certificate_intern_stats()
        assert stats.size == 0
        assert stats.hits == 0 and stats.misses == 0
        assert keep.fingerprint_sha256  # the object itself is unaffected

    def test_pool_does_not_leak_dead_certificates(self, rsa_key):
        from tests.conftest import make_cert

        clear_certificate_intern_pool()
        der = make_cert(rsa_key, "Ephemeral Root", serial=999).der
        clear_certificate_intern_pool()  # builder interned it; start clean
        cert = Certificate.from_der(der)
        assert certificate_intern_stats().size == 1
        del cert
        # CPython refcounting collects immediately; the weak pool drops it.
        assert certificate_intern_stats().size == 0

    def test_parse_failure_not_pooled(self):
        clear_certificate_intern_pool()
        with pytest.raises(Exception):
            Certificate.from_der(b"\x30\x03\x02\x01\x00")
        assert certificate_intern_stats().size == 0

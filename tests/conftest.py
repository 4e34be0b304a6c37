"""Shared fixtures.

The corpus is expensive to regenerate per-test, so it is session-scoped;
all corpus-consuming tests treat it as read-only.
"""

from __future__ import annotations

from contextlib import contextmanager
from datetime import datetime, timezone

import pytest

from repro.archive.io import fsync_enabled, set_fsync
from repro.crypto import DeterministicRandom, generate_ec_key, generate_rsa_key, P256
from repro.simulation import default_corpus
from repro.x509 import CertificateBuilder, Name


@pytest.fixture(scope="session")
def corpus():
    """The full simulated corpus (shared, read-only)."""
    return default_corpus()


@pytest.fixture(scope="session")
def dataset(corpus):
    return corpus.dataset


@contextmanager
def fsync_off():
    """Skip fsync while archives are written, then restore the setting.

    The switch is process-wide and read on every write (the
    ``REPRO_ARCHIVE_FSYNC`` variable is read once, at import, so setting
    it later changes nothing).
    """
    previous = set_fsync(False)
    try:
        assert not fsync_enabled()
        yield
    finally:
        set_fsync(previous)


@pytest.fixture
def no_fsync():
    """Throwaway archives: skip the fsync syscalls for one test."""
    with fsync_off():
        yield


@pytest.fixture(scope="session")
def slug_fingerprints(corpus):
    return {spec.slug: corpus.fingerprint(spec.slug) for spec in corpus.specs}


@pytest.fixture(scope="session")
def rsa_key():
    """A small, fast RSA key for format/x509 unit tests."""
    return generate_rsa_key(512, DeterministicRandom("tests-rsa"))


@pytest.fixture(scope="session")
def rsa_key_2():
    return generate_rsa_key(512, DeterministicRandom("tests-rsa-2"))


@pytest.fixture(scope="session")
def ec_key():
    return generate_ec_key(P256, DeterministicRandom("tests-ec"))


def make_cert(key, cn="Unit Test Root", *, serial=1, ca=True, digest="sha256",
              not_before=None, not_after=None, org="UnitOrg", extra=()):
    """Helper used across test modules to mint a small certificate."""
    builder = (
        CertificateBuilder()
        .subject(Name.build(common_name=cn, organization=org, country="US"))
        .serial(serial)
        .valid(
            not_before or datetime(2015, 1, 1, tzinfo=timezone.utc),
            not_after or datetime(2035, 1, 1, tzinfo=timezone.utc),
        )
        .ca(ca)
    )
    for ext in extra:
        builder.add_extension(ext)
    return builder.self_sign(key, digest)


def scan_engine(root):
    """An ``ArchiveQuery`` answering from the oracle index.

    :func:`tests.oracle.build_index` scans the catalog and manifests
    into plain maps, so the oracle shares no code with the persisted
    index format; everything else (manifest reads, caches, observation
    building) is the engine under test.
    """
    from repro.archive import Archive, ArchiveQuery
    from tests.oracle import build_index

    engine = ArchiveQuery(root)
    engine.index = build_index(Archive(root))
    return engine


@pytest.fixture(scope="session")
def sample_cert(rsa_key):
    return make_cert(rsa_key)


@pytest.fixture(scope="session")
def sample_certs(rsa_key, rsa_key_2, ec_key):
    """Three distinct certificates (two RSA, one EC)."""
    return (
        make_cert(rsa_key, "Alpha Root CA", serial=10),
        make_cert(rsa_key_2, "Beta Root CA", serial=11),
        make_cert(ec_key, "Gamma EC Root", serial=12),
    )

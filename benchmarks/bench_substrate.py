"""Substrate micro-benchmarks.

Throughput of the hot primitives under the measurement pipeline: DER
certificate parsing, RSA sign/verify, certdata round trips, Jaccard
set distance, and Merkle proof generation.  These run with real
pytest-benchmark statistics (multiple rounds) rather than the one-shot
experiment benches.
"""

import pytest

from repro.ct import MerkleTree
from repro.crypto import DeterministicRandom, SHA256_SPEC, generate_rsa_key
from repro.formats import parse_certdata, serialize_certdata
from repro.store.purposes import TrustPurpose
from repro.x509 import Certificate


@pytest.fixture(scope="module")
def nss_latest(dataset):
    return dataset["nss"].latest()


def test_der_certificate_parse(benchmark, nss_latest):
    der = nss_latest.entries[0].certificate.der
    result = benchmark(Certificate.from_der, der)
    assert result.is_ca


def test_rsa_sign(benchmark):
    key = generate_rsa_key(1024, DeterministicRandom("bench-rsa"))
    signature = benchmark(key.sign, b"payload", SHA256_SPEC)
    key.public_key.verify(signature, b"payload", SHA256_SPEC)


def test_rsa_verify(benchmark):
    key = generate_rsa_key(1024, DeterministicRandom("bench-rsa"))
    signature = key.sign(b"payload", SHA256_SPEC)
    benchmark(key.public_key.verify, signature, b"payload", SHA256_SPEC)


def test_certdata_serialize(benchmark, nss_latest):
    entries = list(nss_latest.entries)
    text = benchmark(serialize_certdata, entries)
    assert "BEGINDATA" in text


def test_certdata_parse(benchmark, nss_latest):
    text = serialize_certdata(list(nss_latest.entries))
    entries = benchmark(parse_certdata, text)
    assert len(entries) == len(nss_latest)


def test_jaccard_distance(benchmark, dataset):
    a = dataset["nss"].latest()
    b = dataset["microsoft"].latest()
    distance = benchmark(a.jaccard_distance, b, TrustPurpose.SERVER_AUTH)
    assert 0.0 < distance < 1.0


def test_merkle_inclusion_proof(benchmark):
    tree = MerkleTree([f"entry-{i}".encode() for i in range(1024)])
    proof = benchmark(tree.inclusion_proof, 517)
    assert len(proof) == 10  # log2(1024)

"""The parsed X.509 certificate object.

:class:`Certificate` wraps a DER buffer and exposes the fields the root
store analyses need — fingerprints, validity, key type and size,
signature digest, extensions — plus signature verification against an
issuer key.  Instances are immutable and hash/compare by SHA-256
fingerprint, which is how the whole analysis layer identifies roots.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

from repro.asn1 import decode as decode_der
from repro.asn1.oid import BASIC_CONSTRAINTS, ObjectIdentifier
from repro.crypto.digests import digest_for_signature_oid, scheme_for_signature_oid
from repro.crypto.ec import ECPublicKey
from repro.crypto.rsa import RSAPublicKey
from repro.errors import CertificateParseError, SignatureError, X509Error
from repro.x509.algorithms import AlgorithmIdentifier, PublicKey, decode_spki, key_type
from repro.x509.extensions import Extension, TYPED_EXTENSIONS
from repro.x509.name import Name


@dataclass(frozen=True)
class Validity:
    """notBefore / notAfter window (aware UTC datetimes)."""

    not_before: datetime
    not_after: datetime

    def contains(self, moment: datetime) -> bool:
        return self.not_before <= moment <= self.not_after

    @property
    def lifetime_days(self) -> int:
        return (self.not_after - self.not_before).days


@dataclass(frozen=True)
class InternPoolStats:
    """Observability snapshot of the certificate intern pool."""

    size: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _CertificateInternPool:
    """Content-addressed pool of parsed certificates, keyed by DER bytes.

    Root stores share most of their certificates — the same NSS root
    appears in hundreds of snapshots across ten providers — so without
    interning, collection re-parses (and re-hashes) identical DER over
    and over.  The pool maps DER bytes to the one live
    :class:`Certificate` parsed from them.

    Lifetime: entries are weakly referenced, so the pool never extends a
    certificate's lifetime — it only deduplicates parses while some
    owner (a snapshot, a dataset) keeps the object alive.  Thread
    safety: all map accesses happen under one lock; a race on first
    parse can parse the same DER twice, but ``setdefault`` under the
    lock guarantees every caller receives the same canonical instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_der: weakref.WeakValueDictionary[bytes, "Certificate"] = (
            weakref.WeakValueDictionary()
        )
        self._hits = 0
        self._misses = 0

    def lookup(self, der: bytes) -> "Certificate | None":
        with self._lock:
            cached = self._by_der.get(der)
            if cached is not None:
                self._hits += 1
            else:
                self._misses += 1
            return cached

    def store(self, der: bytes, certificate: "Certificate") -> "Certificate":
        with self._lock:
            return self._by_der.setdefault(der, certificate)

    def stats(self) -> InternPoolStats:
        with self._lock:
            return InternPoolStats(
                size=len(self._by_der), hits=self._hits, misses=self._misses
            )

    def clear(self) -> None:
        with self._lock:
            self._by_der.clear()
            self._hits = 0
            self._misses = 0


_INTERN_POOL = _CertificateInternPool()


def certificate_intern_stats() -> InternPoolStats:
    """Size / hit / miss counters of the process-wide intern pool."""
    return _INTERN_POOL.stats()


def clear_certificate_intern_pool() -> None:
    """Drop every pooled certificate and reset the counters (benchmarks
    use this to measure cold-parse cost)."""
    _INTERN_POOL.clear()


class Certificate:
    """An immutable parsed certificate.

    Build instances with :func:`Certificate.from_der` (or via
    :class:`repro.x509.builder.CertificateBuilder`).  Identity for
    hashing and equality is the SHA-256 fingerprint of the DER bytes,
    matching how the paper identifies roots across stores.
    """

    def __init__(
        self,
        der: bytes,
        *,
        tbs_der: bytes,
        version: int,
        serial_number: int,
        signature_algorithm: AlgorithmIdentifier,
        issuer: Name,
        validity: Validity,
        subject: Name,
        public_key: PublicKey,
        extensions: tuple[Extension, ...],
    ):
        self._der = der
        self._tbs_der = tbs_der
        self.version = version
        self.serial_number = serial_number
        self.signature_algorithm = signature_algorithm
        self.issuer = issuer
        self.validity = validity
        self.subject = subject
        self.public_key = public_key
        self.extensions = extensions

    # -- construction --------------------------------------------------

    @classmethod
    def from_der(cls, der: bytes) -> "Certificate":
        """Parse a DER certificate.

        Identical DER bytes across the whole process share one parsed
        instance through the content-addressed intern pool, so a root
        that appears in hundreds of snapshots is parsed and
        fingerprinted exactly once.
        """
        der = bytes(der)
        cached = _INTERN_POOL.lookup(der)
        if cached is not None:
            return cached
        try:
            certificate = cls._parse(der)
        except X509Error:
            raise
        except Exception as exc:  # noqa: BLE001 - normalize parse failures
            raise CertificateParseError(f"cannot parse certificate: {exc}") from exc
        return _INTERN_POOL.store(der, certificate)

    @classmethod
    def _parse(cls, der: bytes) -> "Certificate":
        outer = decode_der(der).reader()
        tbs = outer.next("tbsCertificate")
        sig_alg = AlgorithmIdentifier.decode(outer.next("signatureAlgorithm"))
        signature_bits = outer.next("signatureValue")
        signature_bits.as_bit_string()  # validate shape
        outer.finish()

        reader = tbs.reader()
        version = 0
        version_wrapper = reader.take_context(0)
        if version_wrapper is not None:
            version = version_wrapper.children()[0].as_integer()
        serial = reader.next("serialNumber").as_integer()
        tbs_sig_alg = AlgorithmIdentifier.decode(reader.next("signature"))
        if tbs_sig_alg.oid != sig_alg.oid:
            raise CertificateParseError(
                f"TBS signature algorithm {tbs_sig_alg.oid} != outer {sig_alg.oid}"
            )
        issuer = Name.decode(reader.next("issuer"))
        validity_reader = reader.next("validity").reader()
        not_before = validity_reader.next("notBefore").as_time()
        not_after = validity_reader.next("notAfter").as_time()
        validity_reader.finish()
        subject = Name.decode(reader.next("subject"))
        public_key = decode_spki(reader.next("subjectPublicKeyInfo"))
        extensions: tuple[Extension, ...] = ()
        # Skip optional issuerUniqueID [1] / subjectUniqueID [2].
        reader.take_context(1)
        reader.take_context(2)
        ext_wrapper = reader.take_context(3)
        if ext_wrapper is not None:
            ext_seq = ext_wrapper.children()[0]
            extensions = tuple(Extension.decode(e) for e in ext_seq.children())
        reader.finish()

        return cls(
            der=bytes(der),
            tbs_der=tbs.encoded,
            version=version,
            serial_number=serial,
            signature_algorithm=sig_alg,
            issuer=issuer,
            validity=Validity(not_before=not_before, not_after=not_after),
            subject=subject,
            public_key=public_key,
            extensions=extensions,
        )

    # -- identity -------------------------------------------------------

    @property
    def der(self) -> bytes:
        """The exact DER bytes this certificate was parsed from."""
        return self._der

    @property
    def tbs_der(self) -> bytes:
        """The TBSCertificate bytes (the signed payload)."""
        return self._tbs_der

    @cached_property
    def fingerprint_sha256(self) -> str:
        return hashlib.sha256(self._der).hexdigest()

    @cached_property
    def fingerprint_sha1(self) -> str:
        return hashlib.sha1(self._der).hexdigest()

    @cached_property
    def fingerprint_md5(self) -> str:
        return hashlib.md5(self._der).hexdigest()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Certificate):
            return self._der == other._der
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.fingerprint_sha256)

    def __repr__(self) -> str:
        return f"<Certificate {self.subject.rfc4514()!r} sha256={self.fingerprint_sha256[:16]}>"

    # -- analysis-facing properties --------------------------------------

    @property
    def key_type(self) -> str:
        """"rsa" or "ec"."""
        return key_type(self.public_key)

    @property
    def key_bits(self) -> int:
        """Modulus size for RSA, field size for EC."""
        return self.public_key.bits

    @property
    def signature_digest(self) -> str:
        """Digest name of the signature algorithm ("md5", "sha1", ...)."""
        return digest_for_signature_oid(self.signature_algorithm.oid).name

    def is_expired(self, at: datetime) -> bool:
        return at > self.validity.not_after

    def is_self_issued(self) -> bool:
        """Subject equals issuer (true for virtually all roots)."""
        return self.subject == self.issuer

    @property
    def is_ca(self) -> bool:
        """True when BasicConstraints marks this certificate as a CA."""
        bc = self.extension_value(BASIC_CONSTRAINTS)
        return bool(bc and bc.ca)

    # -- extensions -------------------------------------------------------

    def extension(self, oid: ObjectIdentifier) -> Extension | None:
        """The raw extension with the given OID, or None."""
        for ext in self.extensions:
            if ext.oid == oid:
                return ext
        return None

    def extension_value(self, oid: ObjectIdentifier):
        """The typed extension value for a known OID, or None when absent."""
        ext = self.extension(oid)
        if ext is None:
            return None
        decoder = TYPED_EXTENSIONS.get(oid)
        if decoder is None:
            raise X509Error(f"no typed decoder for extension {oid}")
        return decoder(ext)

    # -- verification -----------------------------------------------------

    def verify_signature(self, issuer_key: PublicKey) -> None:
        """Verify this certificate's signature with ``issuer_key``.

        Raises :class:`~repro.errors.SignatureError` on mismatch.
        """
        digest = digest_for_signature_oid(self.signature_algorithm.oid)
        scheme = scheme_for_signature_oid(self.signature_algorithm.oid)
        signature = self._signature_bytes()
        if scheme == "rsa":
            if not isinstance(issuer_key, RSAPublicKey):
                raise SignatureError("RSA signature but issuer key is not RSA")
            issuer_key.verify(signature, self._tbs_der, digest)
        elif scheme == "ecdsa":
            if not isinstance(issuer_key, ECPublicKey):
                raise SignatureError("ECDSA signature but issuer key is not EC")
            issuer_key.verify(signature, self._tbs_der, digest)
        else:  # pragma: no cover - registry only has rsa/ecdsa
            raise SignatureError(f"unsupported signature scheme {scheme}")

    def _signature_bytes(self) -> bytes:
        outer = decode_der(self._der).reader()
        outer.next()
        outer.next()
        data, unused = outer.next().as_bit_string()
        if unused:
            raise SignatureError("signature BIT STRING has unused bits")
        return data

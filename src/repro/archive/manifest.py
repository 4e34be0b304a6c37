"""Snapshot manifests, the archive catalog, and the :class:`Archive` facade.

A *manifest* is the on-disk record of one root-store snapshot: which
provider, which version, when it was taken, and the ordered list of
entries — each a certificate fingerprint (pointing into the content
store) plus the trust context that cannot be recovered from the DER
(purpose→level map, partial-distrust date).  Manifests are canonical
JSON (sorted keys, fingerprint-ordered entries), and each is named by
the SHA-256 of its own serialization, so identical snapshots produce
identical manifest files and re-ingest is byte-idempotent::

    manifests/
      nss/1c9e...77.json
      debian/05ab...f0.json
    catalog.json                # the atomic top-level table of contents

The *catalog* maps every ``(provider, version, taken_at)`` to its
manifest id.  It is rewritten as a whole via temp file + ``os.replace``
on every ingest, so readers always observe either the old or the new
catalog, never a torn one.  Its own SHA-256 (:meth:`Archive.catalog_hash`)
is the archive's version stamp: indexes persist it to detect staleness
and the idempotence tests compare it across re-ingests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import FrozenInstanceError, dataclass
from datetime import date, datetime
from json.encoder import encode_basestring_ascii as _encode_string
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.archive.cas import ContentStore, OBJECTS_DIR
from repro.archive.io import atomic_write_bytes
from repro.errors import ArchiveCorruptionError, ArchiveError
from repro.store.entry import TrustEntry
from repro.store.purposes import TrustLevel, TrustPurpose
from repro.store.snapshot import RootStoreSnapshot
from repro.x509.certificate import Certificate

#: Directory name of the manifest tree inside an archive root.
MANIFESTS_DIR = "manifests"
#: File name of the top-level catalog.
CATALOG_FILE = "catalog.json"
#: Schema stamps, bumped on incompatible layout changes.
MANIFEST_SCHEMA = 1
CATALOG_SCHEMA = 1


#: The stored level value of a trust anchor (``TrustLevel.TRUSTED``).
_TRUSTED = TrustLevel.TRUSTED.value


def _trusted_for(trust, purpose_value: str) -> bool:
    """Whether the first stored level for the purpose is "trusted".

    Works on raw ``(purpose value, level value)`` string pairs — stored
    tuples or decoded JSON lists alike — so filtering a manifest by
    purpose never constructs a :class:`TrustLevel` per entry.
    """
    for value, level in trust:
        if value == purpose_value:
            return level == _TRUSTED
    return False


class ManifestEntry(NamedTuple):
    """One trust entry as stored: fingerprint + non-derivable context."""

    fingerprint: str
    trust: tuple[tuple[str, str], ...]  # (purpose value, level value), sorted
    distrust_after: str | None  # ISO 8601 or None

    @classmethod
    def from_entry(cls, entry: TrustEntry) -> "ManifestEntry":
        return cls(
            fingerprint=entry.fingerprint,
            trust=tuple((p.value, lv.value) for p, lv in entry.trust),
            distrust_after=(
                entry.distrust_after.isoformat() if entry.distrust_after else None
            ),
        )

    def to_entry(self, certificate: Certificate) -> TrustEntry:
        return TrustEntry(
            certificate=certificate,
            trust=tuple((TrustPurpose(p), TrustLevel(lv)) for p, lv in self.trust),
            distrust_after=(
                datetime.fromisoformat(self.distrust_after) if self.distrust_after else None
            ),
        )

    def level_for(self, purpose: TrustPurpose) -> TrustLevel | None:
        """Trust level for a purpose straight from the manifest (no DER)."""
        for value, level in self.trust:
            if value == purpose.value:
                return TrustLevel(level)
        return None

    def is_trusted_for(self, purpose: TrustPurpose) -> bool:
        return _trusted_for(self.trust, purpose.value)


def _malformed(exc: Exception) -> ArchiveError:
    return ArchiveError(f"malformed manifest payload: {exc}")


_ROW_ERRORS = (KeyError, TypeError, ValueError)


class SnapshotManifest:
    """The stored form of one :class:`RootStoreSnapshot`.

    Immutable.  A manifest built from entries holds them directly.  A
    manifest decoded from a payload holds the payload's entry rows and
    builds :class:`ManifestEntry` records only when :attr:`entries` (or
    a point lookup) first asks for them; :meth:`fingerprints` and
    :meth:`serialize` answer from the rows, which is all a bulk scan
    needs.  When the canonical bytes are known too (every verified read
    from disk), the rows are handed to one view and then dropped — the
    bytes decode them again on demand — so a cached manifest keeps one
    compact bytes object instead of a tree of JSON containers that
    every garbage-collector pass would traverse.  Materializing the
    entries drops rows and bytes alike: a manifest never holds both
    forms.
    """

    def __init__(
        self,
        provider: str,
        version: str,
        taken_at: date,
        entries: Iterable[ManifestEntry],
    ):
        init = object.__setattr__
        init(self, "provider", provider)
        init(self, "version", version)
        init(self, "taken_at", taken_at)
        init(self, "_entries", tuple(entries))
        #: Decoded payload rows not yet materialized, or None.
        init(self, "_rows", None)
        #: purpose → fingerprint set, memoized while entries are not
        #: materialized (re-deriving a set then costs a JSON decode).
        init(self, "_sets", None)
        #: Fingerprint → entry map, built lazily for point lookups.
        init(self, "_index", None)
        #: Canonical serialization, computed once — the ingest path asks for
        #: ``manifest_id`` several times per snapshot (catalog row, journal
        #: intent, store name) and each recompute is a full JSON encode.
        init(self, "_serialized", None)
        init(self, "_manifest_id", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.provider, self.version, self.taken_at, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SnapshotManifest(provider={self.provider!r}, version={self.version!r}, "
            f"taken_at={self.taken_at!r}, entries=<{len(self)}>)"
        )

    @classmethod
    def from_snapshot(cls, snapshot: RootStoreSnapshot) -> "SnapshotManifest":
        return cls(
            provider=snapshot.provider,
            version=snapshot.version,
            taken_at=snapshot.taken_at,
            entries=tuple(ManifestEntry.from_entry(e) for e in snapshot.entries),
        )

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        rows = self._lazy_rows()
        triples = (
            self._entries
            if rows is None
            else ((row["fingerprint"], row["trust"], row["distrust_after"]) for row in rows)
        )
        try:
            entries = [
                {
                    "fingerprint": fingerprint,
                    "trust": [[p, lv] for p, lv in trust],
                    "distrust_after": distrust_after,
                }
                for fingerprint, trust, distrust_after in triples
            ]
        except _ROW_ERRORS as exc:
            raise _malformed(exc) from exc
        return {
            "schema": MANIFEST_SCHEMA,
            "provider": self.provider,
            "version": self.version,
            "taken_at": self.taken_at.isoformat(),
            "entries": entries,
        }

    @classmethod
    def from_payload(
        cls, payload: dict, *, serialized: bytes | None = None
    ) -> "SnapshotManifest":
        """Decode a payload; entry rows are checked when first read.

        ``serialized`` is the payload's canonical encoding when the
        caller has it (a content-verified read): it becomes the
        :meth:`serialize` result and lets the rows be re-decoded on
        demand instead of kept.
        """
        try:
            manifest = cls(
                provider=payload["provider"],
                version=payload["version"],
                taken_at=date.fromisoformat(payload["taken_at"]),
                entries=(),
            )
            rows = _entry_rows(payload)
        except _ROW_ERRORS as exc:
            raise _malformed(exc) from exc
        init = object.__setattr__
        init(manifest, "_entries", None)
        init(manifest, "_rows", rows)
        init(manifest, "_sets", {})
        init(manifest, "_serialized", serialized)
        return manifest

    def serialize(self) -> bytes:
        """The canonical bytes: ``json.dumps(payload, sort_keys=True, indent=1)``.

        Written by a fixed-shape encoder rather than the generic one: the
        payload's shape never varies, so the text is joined from encoded
        strings directly.  A row the encoder rejects is malformed; the
        structural walk of :meth:`to_payload` runs first on that cold
        path, so a missing key or a bad trust pair anywhere raises the
        same error it always did.  A field that should be a string but is
        not is malformed too.
        """
        serialized = self._serialized
        if serialized is None:
            rows = self._lazy_rows()
            triples = (
                self._entries
                if rows is None
                else ((row["fingerprint"], row["trust"], row["distrust_after"]) for row in rows)
            )
            try:
                serialized = _manifest_text(
                    self.provider, self.version, self.taken_at.isoformat(), triples
                ).encode("ascii")
            except _ROW_ERRORS as exc:
                self.to_payload()
                raise _malformed(exc) from exc
            object.__setattr__(self, "_serialized", serialized)
        return serialized

    @property
    def manifest_id(self) -> str:
        """SHA-256 of the canonical serialization — the manifest's name."""
        manifest_id = self._manifest_id
        if manifest_id is None:
            manifest_id = hashlib.sha256(self.serialize()).hexdigest()
            object.__setattr__(self, "_manifest_id", manifest_id)
        return manifest_id

    # -- views -----------------------------------------------------------

    def _lazy_rows(self) -> list | None:
        """The entry rows while entries are unmaterialized, else None.

        Rows that the canonical bytes can reproduce are handed out once
        and dropped; later calls decode the bytes again.  Writers set
        ``_entries`` before clearing rows and bytes, so a reader that
        finds neither finds the entries.
        """
        rows, data = self._rows, self._serialized
        if rows is not None:
            if data is not None:
                object.__setattr__(self, "_rows", None)
            return rows
        if data is None or self._entries is not None:
            return None
        try:
            return _entry_rows(json.loads(data))
        except _ROW_ERRORS as exc:
            raise _malformed(exc) from exc

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        entries = self._entries
        if entries is not None:
            return entries
        rows = self._lazy_rows()
        if rows is None:
            return self._entries
        try:
            entries = tuple(
                ManifestEntry(
                    row["fingerprint"],
                    tuple((p, lv) for p, lv in row["trust"]),
                    row["distrust_after"],
                )
                for row in rows
            )
        except _ROW_ERRORS as exc:
            raise _malformed(exc) from exc
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_serialized", None)
        return entries

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def entry_index(self) -> dict[str, ManifestEntry]:
        index = self._index
        if index is None:
            index = {e.fingerprint: e for e in self.entries}
            object.__setattr__(self, "_index", index)
        return index

    def get(self, fingerprint: str) -> ManifestEntry | None:
        return self.entry_index.get(fingerprint)

    def fingerprints(self, purpose: TrustPurpose | None = None) -> frozenset[str]:
        """The snapshot's (purpose-filtered) fingerprint set — no DER needed.

        Mirrors :meth:`RootStoreSnapshot.fingerprints`: the manifest
        stores the full purpose→level map, so archive-backed analyses
        can filter by trust purpose without reconstructing certificates.
        The filter compares the stored strings and runs on undecoded
        rows as readily as on entries.
        """
        sets = self._sets
        if sets is None:
            return self._fingerprints(purpose)
        found = sets.get(purpose)
        if found is None:
            found = sets[purpose] = self._fingerprints(purpose)
        return found

    def _fingerprints(self, purpose: TrustPurpose | None) -> frozenset[str]:
        rows = self._lazy_rows()
        if rows is None:
            if purpose is None:
                return frozenset(e.fingerprint for e in self._entries)
            value = purpose.value
            return frozenset(
                e.fingerprint for e in self._entries if _trusted_for(e.trust, value)
            )
        try:
            if purpose is None:
                return frozenset(row["fingerprint"] for row in rows)
            value = purpose.value
            return frozenset(
                row["fingerprint"] for row in rows if _trusted_for(row["trust"], value)
            )
        except _ROW_ERRORS as exc:
            raise _malformed(exc) from exc


def _string(value) -> str:
    """One JSON string literal, ASCII-escaped exactly as ``json.dumps`` does."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return _encode_string(value)


def _trust_text(trust) -> str:
    pairs = [f"    [\n     {_string(p)},\n     {_string(lv)}\n    ]" for p, lv in trust]
    return "[\n" + ",\n".join(pairs) + "\n   ]" if pairs else "[]"


def _manifest_text(provider, version, taken_at: str, triples) -> str:
    """The ``indent=1, sort_keys=True`` manifest document, one entry at a time.

    Keys appear in sorted order by construction (``distrust_after`` <
    ``fingerprint`` < ``trust``; ``entries`` < ``provider`` < ``schema``
    < ``taken_at`` < ``version``).  A trust list is encoded once per
    distinct stored tuple: the corpus has a handful of purpose→level
    maps shared by thousands of entries.
    """
    trust_texts: dict = {}
    parts = []
    for fingerprint, trust, distrust_after in triples:
        if trust.__class__ is tuple:
            trust_text = trust_texts.get(trust)
            if trust_text is None:
                trust_text = trust_texts[trust] = _trust_text(trust)
        else:
            trust_text = _trust_text(trust)
        after = "null" if distrust_after is None else _string(distrust_after)
        parts.append(
            f"  {{\n   \"distrust_after\": {after},\n   \"fingerprint\": "
            f"{_string(fingerprint)},\n   \"trust\": {trust_text}\n  }}"
        )
    entries = "[\n" + ",\n".join(parts) + "\n ]" if parts else "[]"
    return (
        f"{{\n \"entries\": {entries},\n \"provider\": {_string(provider)},\n"
        f" \"schema\": {MANIFEST_SCHEMA},\n \"taken_at\": {_string(taken_at)},\n"
        f" \"version\": {_string(version)}\n}}\n"
    )


def _entry_rows(payload: dict) -> list:
    rows = payload["entries"]
    if not isinstance(rows, list):
        raise TypeError(f"entries is a {type(rows).__name__}, not a list")
    return rows


@dataclass(frozen=True)
class CatalogRow:
    """One snapshot's line in the top-level catalog."""

    provider: str
    version: str
    taken_at: date
    manifest_id: str
    entries: int

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.provider, self.version, self.taken_at.isoformat())


def serialize_catalog(rows: list[CatalogRow]) -> bytes:
    """The catalog's canonical bytes for a row set (sorted, stable JSON).

    Exposed separately from :meth:`Archive.write_catalog` so the ingest
    journal can record the hash the new catalog *will* have before the
    replace happens — the intent that lets ``repair`` tell a completed
    ingest from an interrupted one.
    """
    ordered = sorted(rows, key=lambda r: (r.provider, r.taken_at.isoformat(), r.version))
    payload = {
        "schema": CATALOG_SCHEMA,
        "snapshots": [
            {
                "provider": r.provider,
                "version": r.version,
                "taken_at": r.taken_at.isoformat(),
                "manifest": r.manifest_id,
                "entries": r.entries,
            }
            for r in ordered
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("ascii")


class Archive:
    """An on-disk trust-store archive: object store + manifests + catalog.

    The facade owns the directory layout and the atomic catalog write;
    ingest (:mod:`repro.archive.ingest`) and querying
    (:mod:`repro.archive.query`) build on it.
    """

    def __init__(self, root: Path | str, *, create: bool = False):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ArchiveError(f"archive directory {self.root} does not exist")
        self.objects = ContentStore(self.root / OBJECTS_DIR)

    # -- catalog ---------------------------------------------------------

    @property
    def catalog_path(self) -> Path:
        return self.root / CATALOG_FILE

    def catalog_bytes(self) -> bytes | None:
        try:
            return self.catalog_path.read_bytes()
        except FileNotFoundError:
            return None

    def catalog_hash(self) -> str | None:
        """SHA-256 of the catalog file — the archive's version stamp."""
        data = self.catalog_bytes()
        return hashlib.sha256(data).hexdigest() if data is not None else None

    def read_catalog(self) -> list[CatalogRow]:
        """The catalog rows, or an empty list for a fresh archive."""
        data = self.catalog_bytes()
        if data is None:
            return []
        try:
            payload = json.loads(data)
            rows = [
                CatalogRow(
                    provider=r["provider"],
                    version=r["version"],
                    taken_at=date.fromisoformat(r["taken_at"]),
                    manifest_id=r["manifest"],
                    entries=r["entries"],
                )
                for r in payload["snapshots"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArchiveError(f"malformed catalog {self.catalog_path}: {exc}") from exc
        return rows

    def write_catalog(self, rows: list[CatalogRow], data: bytes | None = None) -> None:
        """Durably, atomically replace the catalog (sorted, canonical JSON).

        ``data`` is ``serialize_catalog(rows)`` when the caller already
        holds it (the writer journals its hash before the replace).
        """
        if data is None:
            data = serialize_catalog(rows)
        atomic_write_bytes(self.catalog_path, data, site="catalog")

    # -- manifests -------------------------------------------------------

    @property
    def manifests_root(self) -> Path:
        return self.root / MANIFESTS_DIR

    def manifest_path(self, provider: str, manifest_id: str) -> Path:
        return self.manifests_root / provider / f"{manifest_id}.json"

    def write_manifest(self, manifest: SnapshotManifest) -> tuple[str, bool]:
        """Persist a manifest under its content id; False when present."""
        manifest_id = manifest.manifest_id
        path = self.manifest_path(manifest.provider, manifest_id)
        if path.exists():
            return manifest_id, False
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, manifest.serialize(), site="manifest")
        return manifest_id, True

    def read_manifest(self, provider: str, manifest_id: str) -> SnapshotManifest:
        path = self.manifest_path(provider, manifest_id)
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise ArchiveCorruptionError(
                f"manifest {provider}/{manifest_id} missing ({path})",
                fingerprint=manifest_id,
                path=str(path),
            ) from exc
        actual = hashlib.sha256(data).hexdigest()
        if actual != manifest_id:
            raise ArchiveCorruptionError(
                f"manifest {provider}/{manifest_id} is corrupt: bytes hash to {actual} ({path})",
                fingerprint=manifest_id,
                path=str(path),
            )
        try:
            payload = json.loads(data)
        except ValueError as exc:
            raise ArchiveError(f"manifest {path} is not valid JSON: {exc}") from exc
        return SnapshotManifest.from_payload(payload, serialized=data)

    def manifest_files(self) -> list[tuple[str, str, Path]]:
        """Every (provider, manifest_id, path) present on disk, sorted."""
        result: list[tuple[str, str, Path]] = []
        if not self.manifests_root.is_dir():
            return result
        for provider_dir in sorted(p for p in self.manifests_root.iterdir() if p.is_dir()):
            for path in sorted(provider_dir.glob("*.json")):
                result.append((provider_dir.name, path.stem, path))
        return result

    # -- reconstruction --------------------------------------------------

    def load_snapshot(self, manifest: SnapshotManifest) -> RootStoreSnapshot:
        """Rebuild the full :class:`RootStoreSnapshot` from stored state.

        Certificate bytes come out of the content store (integrity
        checked) and are parsed through the interned
        :meth:`Certificate.from_der`, so a certificate shared by many
        snapshots is parsed once per process, not once per manifest.
        """
        entries = [
            e.to_entry(Certificate.from_der(self.objects.get(e.fingerprint)))
            for e in manifest.entries
        ]
        return RootStoreSnapshot.build(
            manifest.provider, manifest.taken_at, manifest.version, entries
        )

"""The persisted trust index (``index/trust.bin``).

One struct-packed, versioned-header, checksummed file holds the
:class:`~repro.archive.index.ArchiveIndex`, laid out for ``mmap``:

- **header** (104 bytes): magic, schema, the catalog hash the index
  was built from, a SHA-256 of the payload, section counts, and the
  fixed field widths.
- **provider table**: fixed-width name + the (offset, count) of the
  provider's slice of the global timeline array.
- **timeline records**: fixed-width ``(taken_at, entries,
  manifest_id, version)``, date-ordered per provider, so
  point-in-time resolution is a ``bisect`` over raw records that
  decodes exactly one entry.
- **fingerprint table + posting ranges + postings**: the 32-byte raw
  fingerprints in sorted order (lowercase hex sorts identically to
  its bytes), each with an (offset, count) into a flat array of
  ``u32`` global timeline indexes — one lookup decodes one posting
  list, nothing else.

The file is read two ways.  Query engines open it by header only
(:func:`load_binary_index`): cold start is O(header read), and N
pre-forked workers share the mapped pages instead of holding N parsed
copies; the payload checksum is *not* verified on that path — it
would defeat the zero-parse open — only by ``archive verify`` and
``archive repair`` (:func:`check_binary_index`), which treat a
mismatch as crash damage to quarantine and rebuild.  Writers decode it
whole (:func:`read_verified_index`, the delta base of a commit and
``load_index``'s fresh path), and that decode verifies the checksum
first, so a damaged file is rebuilt from manifests rather than patched
and re-checksummed as if it were valid.

The encoding is a pure deterministic function of the
:class:`ArchiveIndex`, so the delta-maintained file is byte-identical
to a full rebuild (the kill-matrix property) and repair converges by
rebuilding.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
from bisect import bisect_right
from collections.abc import Mapping
from datetime import date
from pathlib import Path

from repro.archive.index import (
    INDEX_DIR,
    ArchiveIndex,
    Posting,
    TimelineEntry,
    load_index,
)
from repro.archive.io import atomic_write_bytes
from repro.archive.manifest import Archive
from repro.errors import ArchiveError

#: File name of the binary index inside ``index/``.
BINARY_FILE = "trust.bin"
#: Eight bytes no JSON file starts with.
MAGIC = b"REPROIDX"
BINARY_SCHEMA = 1

#: magic, schema, flags, provider_width, version_width, n_providers,
#: n_timelines, n_fingerprints, n_postings, payload_len, catalog_hash,
#: payload_sha256.
_HEADER = struct.Struct("<8sHHHHIIIIQ32s32s")
HEADER_SIZE = _HEADER.size

_TIMELINE_FIXED = struct.Struct("<II32s")  # taken_at ordinal, entries, manifest_id
_RANGE = struct.Struct("<II")  # postings (offset, count) / provider timeline slice
_POSTING = struct.Struct("<I")  # global timeline index
_FP_WIDTH = 32


def binary_index_path(archive: Archive) -> Path:
    return archive.root / INDEX_DIR / BINARY_FILE


def _hex_bytes(value: str, what: str) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise ArchiveError(f"{what} {value!r} is not hex") from exc
    if len(raw) != _FP_WIDTH:
        raise ArchiveError(f"{what} {value!r} is not a SHA-256 (64 hex chars)")
    return raw


def _padded(value: str, width: int, what: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise ArchiveError(f"{what} {value!r} exceeds its declared width {width}")
    return raw.ljust(width, b"\x00")


def encode_binary_index(index: ArchiveIndex) -> bytes:
    """Serialize an index deterministically (same input, same bytes)."""
    providers = sorted(index.timelines)
    provider_width = max((len(p.encode("utf-8")) for p in providers), default=1)
    versions = [t.version for ts in index.timelines.values() for t in ts]
    version_width = max((len(v.encode("utf-8")) for v in versions), default=1)

    # Global timeline array: provider-sorted, each provider's entries in
    # stored (date, version) order; postings reference entries by index.
    timeline_index: dict[tuple[str, date, str], int] = {}
    provider_rows: list[bytes] = []
    timeline_rows: list[bytes] = []
    for provider in providers:
        timeline = index.timelines[provider]
        provider_rows.append(
            _padded(provider, provider_width, "provider")
            + _RANGE.pack(len(timeline_rows), len(timeline))
        )
        for entry in timeline:
            timeline_index[(provider, entry.taken_at, entry.version)] = len(timeline_rows)
            timeline_rows.append(
                _TIMELINE_FIXED.pack(
                    entry.taken_at.toordinal(),
                    entry.entries,
                    _hex_bytes(entry.manifest_id, "manifest id"),
                )
                + _padded(entry.version, version_width, "version")
            )

    fingerprints = sorted(index.postings)
    fp_rows: list[bytes] = []
    range_rows: list[bytes] = []
    posting_rows: list[bytes] = []
    for fingerprint in fingerprints:
        postings = index.postings[fingerprint]
        fp_rows.append(_hex_bytes(fingerprint, "fingerprint"))
        range_rows.append(_RANGE.pack(len(posting_rows), len(postings)))
        for posting in postings:
            try:
                ref = timeline_index[(posting.provider, posting.taken_at, posting.version)]
            except KeyError as exc:
                raise ArchiveError(
                    f"posting {posting} references no timeline entry"
                ) from exc
            posting_rows.append(_POSTING.pack(ref))

    payload = b"".join(provider_rows + timeline_rows + fp_rows + range_rows + posting_rows)
    header = _HEADER.pack(
        MAGIC,
        BINARY_SCHEMA,
        0,
        provider_width,
        version_width,
        len(providers),
        len(timeline_rows),
        len(fingerprints),
        len(posting_rows),
        len(payload),
        _hex_bytes(index.catalog_hash, "catalog hash"),
        hashlib.sha256(payload).digest(),
    )
    return header + payload


def persist_binary_index(archive: Archive, index: ArchiveIndex) -> None:
    """Atomically install ``trust.bin`` under the "index" crash site."""
    path = binary_index_path(archive)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, encode_binary_index(index), site="index")


class _Header:
    """Decoded header fields plus the derived section offsets."""

    __slots__ = (
        "provider_width", "version_width", "n_providers", "n_timelines",
        "n_fingerprints", "n_postings", "payload_len", "catalog_hash",
        "payload_sha", "provider_record", "timeline_record",
        "providers_at", "timelines_at", "fingerprints_at", "ranges_at",
        "postings_at",
    )

    def __init__(self, raw: bytes):
        (
            magic, schema, _flags, self.provider_width, self.version_width,
            self.n_providers, self.n_timelines, self.n_fingerprints,
            self.n_postings, self.payload_len, catalog_hash, self.payload_sha,
        ) = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ArchiveError("bad magic (torn or foreign file)")
        if schema != BINARY_SCHEMA:
            raise ArchiveError(f"unsupported schema {schema}")
        self.catalog_hash = catalog_hash.hex()
        self.provider_record = self.provider_width + _RANGE.size
        self.timeline_record = _TIMELINE_FIXED.size + self.version_width
        self.providers_at = HEADER_SIZE
        self.timelines_at = self.providers_at + self.n_providers * self.provider_record
        self.fingerprints_at = self.timelines_at + self.n_timelines * self.timeline_record
        self.ranges_at = self.fingerprints_at + self.n_fingerprints * _FP_WIDTH
        self.postings_at = self.ranges_at + self.n_fingerprints * _RANGE.size
        expected = (
            self.postings_at + self.n_postings * _POSTING.size - HEADER_SIZE
        )
        if self.payload_len != expected:
            raise ArchiveError(
                f"payload length {self.payload_len} disagrees with section "
                f"counts (expect {expected})"
            )


def _decode_providers(buffer, header: _Header) -> list[tuple[str, int, int]]:
    """The provider table: ``(name, timeline offset, timeline count)`` rows."""
    table = []
    for k in range(header.n_providers):
        at = header.providers_at + k * header.provider_record
        name = buffer[at : at + header.provider_width].rstrip(b"\x00")
        offset, count = _RANGE.unpack_from(buffer, at + header.provider_width)
        table.append((name.decode("utf-8"), offset, count))
    return table


def _decode_timeline(buffer, header: _Header, position: int) -> TimelineEntry:
    """The timeline record at global index ``position``."""
    at = header.timelines_at + position * header.timeline_record
    ordinal, entries, manifest_raw = _TIMELINE_FIXED.unpack_from(buffer, at)
    version_at = at + _TIMELINE_FIXED.size
    version = buffer[version_at : version_at + header.version_width]
    return TimelineEntry(
        taken_at=date.fromordinal(ordinal),
        version=version.rstrip(b"\x00").decode("utf-8"),
        manifest_id=manifest_raw.hex(),
        entries=entries,
    )


class _PostingsView(Mapping):
    """Lazy ``fingerprint -> postings`` mapping over the mmap."""

    def __init__(self, index: BinaryIndex):
        self._index = index

    def __len__(self) -> int:
        return self._index._header.n_fingerprints

    def __iter__(self):
        return iter(self._index._fingerprints())

    def __contains__(self, fingerprint) -> bool:
        return self._index._find_fingerprint(fingerprint) is not None

    def __getitem__(self, fingerprint: str) -> tuple[Posting, ...]:
        position = self._index._find_fingerprint(fingerprint)
        if position is None:
            raise KeyError(fingerprint)
        return self._index._postings_at(position)


class _TimelinesView(Mapping):
    """Lazy ``provider -> timeline`` mapping over the mmap."""

    def __init__(self, index: BinaryIndex):
        self._index = index

    def __len__(self) -> int:
        return self._index._header.n_providers

    def __iter__(self):
        return iter(self._index.providers)

    def __getitem__(self, provider: str) -> tuple[TimelineEntry, ...]:
        try:
            return self._index.timeline(provider)
        except ArchiveError:
            raise KeyError(provider) from None


class BinaryIndex:
    """An mmap-backed read-only index, duck-typed to ``ArchiveIndex``.

    Construction validates the header only; every section decodes
    lazily, one record at a time, on first touch.  Decoded timeline
    entries are memoized (they are shared by every posting pointing at
    the same release), so a steady-state worker converges to exactly
    the hot subset of the index in Python objects while the cold bulk
    stays in shared pages.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            head = handle.read(HEADER_SIZE)
            if len(head) < HEADER_SIZE:
                raise ArchiveError("short header (torn write)")
            self._header = _Header(head)
            self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        actual = len(self._map)
        if actual != HEADER_SIZE + self._header.payload_len:
            self._map.close()
            raise ArchiveError(
                f"file is {actual} bytes, header promises "
                f"{HEADER_SIZE + self._header.payload_len} (torn write)"
            )
        self.catalog_hash: str = self._header.catalog_hash
        self._provider_table: list[tuple[str, int, int]] | None = None
        self._timeline_cache: dict[int, TimelineEntry] = {}
        self._provider_of_cache: dict[int, str] = {}

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._map.close()

    def verify_payload(self) -> bool:
        """Whether the payload matches its recorded SHA-256 (full read)."""
        digest = hashlib.sha256(self._map[HEADER_SIZE:]).digest()
        return digest == self._header.payload_sha

    # -- provider table ---------------------------------------------------

    def _providers(self) -> list[tuple[str, int, int]]:
        if self._provider_table is None:
            self._provider_table = _decode_providers(self._map, self._header)
        return self._provider_table

    @property
    def providers(self) -> list[str]:
        return [name for name, _, _ in self._providers()]

    @property
    def fingerprint_count(self) -> int:
        return self._header.n_fingerprints

    @property
    def postings(self) -> Mapping:
        return _PostingsView(self)

    @property
    def timelines(self) -> Mapping:
        return _TimelinesView(self)

    # -- timeline records -------------------------------------------------

    def _timeline_entry(self, position: int) -> TimelineEntry:
        cached = self._timeline_cache.get(position)
        if cached is None:
            cached = _decode_timeline(self._map, self._header, position)
            self._timeline_cache[position] = cached
        return cached

    def _provider_range(self, provider: str) -> tuple[int, int]:
        for name, offset, count in self._providers():
            if name == provider:
                return offset, count
        raise ArchiveError(f"no provider {provider!r} in archive")

    def _provider_of(self, position: int) -> str:
        cached = self._provider_of_cache.get(position)
        if cached is None:
            for name, offset, count in self._providers():
                if offset <= position < offset + count:
                    cached = name
                    break
            else:  # pragma: no cover - encode() guarantees coverage
                raise ArchiveError(f"timeline index {position} out of range")
            self._provider_of_cache[position] = cached
        return cached

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        offset, count = self._provider_range(provider)
        return tuple(self._timeline_entry(offset + k) for k in range(count))

    def _taken_at_ordinal(self, position: int) -> int:
        at = self._header.timelines_at + position * self._header.timeline_record
        return _TIMELINE_FIXED.unpack_from(self._map, at)[0]

    def in_force(self, provider: str, when: date) -> TimelineEntry | None:
        """Same contract as ``ArchiveIndex.in_force``, via raw bisect.

        The bisect probes read one ``u32`` date per step straight from
        the mapped records; only the winning entry is decoded.
        """
        offset, count = self._provider_range(provider)
        if count == 0:
            return None
        target = when.toordinal()
        lo, hi = 0, count
        while lo < hi:  # bisect_right over record dates without decoding
            mid = (lo + hi) // 2
            if self._taken_at_ordinal(offset + mid) <= target:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return None  # `when` predates the first release
        return self._timeline_entry(offset + lo - 1)

    # -- fingerprint postings ---------------------------------------------

    def _fingerprint_at(self, position: int) -> bytes:
        at = self._header.fingerprints_at + position * _FP_WIDTH
        return self._map[at : at + _FP_WIDTH]

    def _fingerprints(self) -> list[str]:
        return [
            self._fingerprint_at(k).hex() for k in range(self._header.n_fingerprints)
        ]

    def _find_fingerprint(self, fingerprint: str) -> int | None:
        """Binary search the sorted raw table (hex order == byte order).

        Only the canonical lowercase hex form matches, as in every other
        index: ``bytes.fromhex`` alone would also accept uppercase and
        embedded whitespace.
        """
        try:
            raw = bytes.fromhex(fingerprint)
        except ValueError:
            return None
        if len(raw) != _FP_WIDTH or raw.hex() != fingerprint:
            return None
        lo, hi = 0, self._header.n_fingerprints
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._fingerprint_at(mid)
            if probe < raw:
                lo = mid + 1
            elif probe > raw:
                hi = mid
            else:
                return mid
        return None

    def _postings_at(self, position: int) -> tuple[Posting, ...]:
        offset, count = _RANGE.unpack_from(
            self._map, self._header.ranges_at + position * _RANGE.size
        )
        postings = []
        for k in range(count):
            (ref,) = _POSTING.unpack_from(
                self._map, self._header.postings_at + (offset + k) * _POSTING.size
            )
            entry = self._timeline_entry(ref)
            postings.append(
                Posting(
                    provider=self._provider_of(ref),
                    version=entry.version,
                    taken_at=entry.taken_at,
                )
            )
        return tuple(postings)

    def postings_for(self, fingerprint: str) -> tuple[Posting, ...]:
        position = self._find_fingerprint(fingerprint)
        return () if position is None else self._postings_at(position)

    # -- materialization ----------------------------------------------------

    def to_archive_index(self) -> ArchiveIndex:
        """Decode the whole file into a plain ``ArchiveIndex``.

        The payload SHA-256 is verified first (:class:`ArchiveError` on
        a mismatch), so the result is never built from damaged bytes.
        Decoding then runs over one copy of the file: one ``Posting`` per
        timeline record, shared by every posting list that references
        it, and the posting ranges and refs each unpacked by one
        little-endian ``u32`` array read.
        """
        if not self.verify_payload():
            raise ArchiveError("payload checksum mismatch (bit flip or torn write)")
        header, data = self._header, self._map[:]
        timelines: dict[str, tuple[TimelineEntry, ...]] = {}
        shared: list[Posting | None] = [None] * header.n_timelines
        for provider, offset, count in _decode_providers(data, header):
            timeline = tuple(
                _decode_timeline(data, header, offset + k) for k in range(count)
            )
            timelines[provider] = timeline
            for k, entry in enumerate(timeline):
                shared[offset + k] = Posting(
                    provider=provider, version=entry.version, taken_at=entry.taken_at
                )
        ranges = struct.unpack_from(f"<{2 * header.n_fingerprints}I", data, header.ranges_at)
        refs = struct.unpack_from(f"<{header.n_postings}I", data, header.postings_at)
        fingerprints = data[header.fingerprints_at : header.ranges_at].hex()
        width = 2 * _FP_WIDTH
        postings = {
            fingerprints[k * width : (k + 1) * width]: tuple(
                shared[ref] for ref in refs[ranges[2 * k] : ranges[2 * k] + ranges[2 * k + 1]]
            )
            for k in range(header.n_fingerprints)
        }
        return ArchiveIndex(catalog_hash=self.catalog_hash, postings=postings, timelines=timelines)


def read_binary_index(archive: Archive, catalog_hash: str) -> BinaryIndex | None:
    """Open ``trust.bin`` when present, intact-looking, and fresh.

    ``None`` means "treat as absent": missing file, torn/foreign
    header, or a catalog hash that is not ``catalog_hash``.  Only the
    header is validated — payload damage is ``verify``/``repair``'s
    job (:func:`check_binary_index`).
    """
    path = binary_index_path(archive)
    try:
        index = BinaryIndex(path)
    except FileNotFoundError:
        return None
    except (ArchiveError, ValueError, OSError):
        return None
    if index.catalog_hash != catalog_hash:
        index.close()
        return None
    return index


def read_verified_index(archive: Archive, catalog_hash: str) -> ArchiveIndex | None:
    """``trust.bin`` for ``catalog_hash``, decoded whole and checksum-verified.

    ``None`` means "rebuild from manifests": the file is missing, its
    header is torn or foreign, it was built for another catalog, or its
    payload fails the SHA-256 check.  This is the read writers patch
    (the commit-time delta base) and ``load_index``'s fresh path.
    """
    binary = read_binary_index(archive, catalog_hash)
    if binary is None:
        return None
    try:
        return binary.to_archive_index()
    except ArchiveError:
        return None
    finally:
        binary.close()


def load_binary_index(archive: Archive) -> BinaryIndex:
    """The query loader: fresh binary index, (re)built on demand.

    What :class:`~repro.archive.query.ArchiveQuery` opens.  When
    ``trust.bin`` is missing or stale the index is rebuilt from the
    manifests and persisted before the mmap is opened, so the cost is
    paid once per catalog version no matter how many workers follow.
    """
    catalog_hash = archive.catalog_hash()
    if catalog_hash is None:
        raise ArchiveError(f"archive {archive.root} has no catalog (nothing ingested?)")
    binary = read_binary_index(archive, catalog_hash)
    if binary is None:
        load_index(archive, rebuild=True)
        binary = read_binary_index(archive, catalog_hash)
    if binary is None:  # pragma: no cover - the rebuild just persisted it
        raise ArchiveError(f"binary index unreadable after rebuild at {binary_index_path(archive)}")
    return binary


def check_binary_index(archive: Archive) -> tuple[str, str] | None:
    """A ``(file, detail)`` damage finding for ``trust.bin``, or None.

    Stale-but-valid (catalog hash mismatch) is *not* damage — queries
    rebuild lazily.  Damage is a torn or foreign header, a length that
    disagrees with the header, or a payload whose checksum no longer
    matches: the signatures of a crashed or bit-flipped write landing
    under the final name.
    """
    path = binary_index_path(archive)
    if not path.exists():
        return None
    rel = f"{INDEX_DIR}/{BINARY_FILE}"
    try:
        index = BinaryIndex(path)
    except ArchiveError as exc:
        return (rel, str(exc))
    except OSError as exc:  # pragma: no cover - unreadable file
        return (rel, f"unreadable: {exc}")
    try:
        if not index.verify_payload():
            return (rel, "payload checksum mismatch (bit flip or torn write)")
    finally:
        index.close()
    return None

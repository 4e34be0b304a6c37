"""The trust index (``index/trust.bin``): one layout, on disk and in memory.

One struct-packed, versioned-header, checksummed file holds the index,
and :class:`BinaryIndex` *is* that file's bytes — readers map the file,
writers hold new bytes in memory — so there is no second, decoded form:

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

Every open verifies the payload SHA-256 (a fraction of a millisecond
at the 649-snapshot corpus): a torn, foreign or bit-flipped file
raises :class:`~repro.errors.ArchiveError` from the constructor, the
loaders treat it as absent and rebuild it from manifests, and
``archive verify``/``archive repair`` (:func:`check_binary_index`)
report it as damage to quarantine.  Reads then decode one record at a
time straight from the buffer, and N pre-forked workers share the
mapped pages instead of holding N parsed copies.

Writers never decode the file either: :meth:`BinaryIndex.merged`
merges a batch of changed snapshots into the sections and joins them
under a new header.  The encoding is a pure deterministic function of
the index content, so a delta-maintained file is byte-identical to a
full rebuild (the kill-matrix property) and repair converges by
rebuilding.  Only the standard library is used, so the index path
never loads numpy.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
import sys
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable

from repro.archive.io import atomic_write_bytes
from repro.archive.manifest import Archive, CatalogRow
from repro.errors import ArchiveError

#: Directory name of the index file inside an archive root.
INDEX_DIR = "index"
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


@dataclass(frozen=True)
class Posting:
    """One appearance of a fingerprint: a (provider, release) pair."""

    provider: str
    version: str
    taken_at: date


@dataclass(frozen=True)
class TimelineEntry:
    """One release on a provider's timeline."""

    taken_at: date
    version: str
    manifest_id: str
    entries: int


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


def _u32_array(data) -> array:
    """A little-endian ``u32`` section as an ``array('I')``."""
    values = array("I", data)
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        values.byteswap()
    return values


def _u32_bytes(values: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        values = array("I", values)
        values.byteswap()
    return values.tobytes()


def _assemble(
    catalog_hash: str,
    provider_width: int,
    version_width: int,
    providers: list[bytes],
    timelines: list[bytes],
    n_timelines: int,
    fingerprints: list[bytes],
    ranges: array,
    postings: array,
) -> BinaryIndex:
    """The header plus the joined sections, as an in-memory index."""
    payload = b"".join(
        chain(providers, timelines, fingerprints, (_u32_bytes(ranges), _u32_bytes(postings)))
    )
    header = _HEADER.pack(
        MAGIC,
        BINARY_SCHEMA,
        0,
        provider_width,
        version_width,
        len(providers),
        n_timelines,
        len(ranges) // 2,
        len(postings),
        len(payload),
        _hex_bytes(catalog_hash, "catalog hash"),
        hashlib.sha256(payload).digest(),
    )
    return BinaryIndex(header + payload)


def empty_index() -> BinaryIndex:
    """The index of an empty catalog: the base a first ingest merges into."""
    return _assemble("00" * _FP_WIDTH, 1, 1, [], [], 0, [], array("I"), array("I"))


def persist_binary_index(archive: Archive, index: BinaryIndex) -> None:
    """Atomically install ``trust.bin`` under the "index" crash site."""
    path = binary_index_path(archive)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, index.encode(), site="index")


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


class BinaryIndex:
    """The trust index: ``trust.bin``'s bytes, mapped or in memory.

    ``source`` is the file's path (an mmap, whose pages every process
    mapping the file shares) or the file's bytes.  Construction checks
    the header, the length and the payload SHA-256 — any mismatch is an
    :class:`ArchiveError` — and decodes nothing else: every section
    decodes lazily, one record at a time, on first touch.  Decoded
    timeline entries are memoized (they are shared by every posting
    pointing at the same release), so a steady-state worker converges
    to exactly the hot subset of the index in Python objects while the
    cold bulk stays in shared pages.
    """

    def __init__(self, source: Path | str | bytes):
        if isinstance(source, bytes):
            self.path: Path | None = None
            self._buffer = source
            head = source[:HEADER_SIZE]
        else:
            self.path = Path(source)
            with open(self.path, "rb") as handle:
                head = handle.read(HEADER_SIZE)
                if len(head) < HEADER_SIZE:
                    raise ArchiveError("short header (torn write)")
                self._buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            if len(head) < HEADER_SIZE:
                raise ArchiveError("short header (torn write)")
            self._header = _Header(head)
            expected = HEADER_SIZE + self._header.payload_len
            if len(self._buffer) != expected:
                raise ArchiveError(
                    f"file is {len(self._buffer)} bytes, header promises "
                    f"{expected} (torn write)"
                )
            if not self.verify_payload():
                raise ArchiveError("payload checksum mismatch (bit flip or torn write)")
        except ArchiveError:
            self.close()
            raise
        self.catalog_hash: str = self._header.catalog_hash
        self._provider_table: list[tuple[str, int, int]] | None = None
        self._timeline_cache: dict[int, TimelineEntry] = {}
        self._provider_of_cache: dict[int, str] = {}

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if isinstance(self._buffer, mmap.mmap):
            self._buffer.close()

    def verify_payload(self) -> bool:
        """Whether the payload matches its recorded SHA-256 (full read)."""
        with memoryview(self._buffer) as view:
            digest = hashlib.sha256(view[HEADER_SIZE:]).digest()
        return digest == self._header.payload_sha

    def encode(self) -> bytes:
        """The file's bytes: the header plus the joined sections."""
        return self._buffer[:]

    # -- provider table ---------------------------------------------------

    def _providers(self) -> list[tuple[str, int, int]]:
        """The provider table: ``(name, timeline offset, timeline count)`` rows."""
        if self._provider_table is None:
            header, table = self._header, []
            for k in range(header.n_providers):
                at = header.providers_at + k * header.provider_record
                name = self._buffer[at : at + header.provider_width].rstrip(b"\x00")
                offset, count = _RANGE.unpack_from(self._buffer, at + header.provider_width)
                table.append((name.decode("utf-8"), offset, count))
            self._provider_table = table
        return self._provider_table

    @property
    def providers(self) -> list[str]:
        return [name for name, _, _ in self._providers()]

    @property
    def fingerprint_count(self) -> int:
        return self._header.n_fingerprints

    @property
    def postings(self) -> list[str]:
        """Every indexed fingerprint (lowercase hex), sorted."""
        header = self._header
        table = self._buffer[header.fingerprints_at : header.ranges_at].hex()
        width = 2 * _FP_WIDTH
        return [table[at : at + width] for at in range(0, len(table), width)]

    # -- timeline records -------------------------------------------------

    def _timeline_entry(self, position: int) -> TimelineEntry:
        cached = self._timeline_cache.get(position)
        if cached is None:
            cached = _decode_timeline(self._buffer, self._header, position)
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
            else:  # pragma: no cover - the provider table covers every record
                raise ArchiveError(f"timeline index {position} out of range")
            self._provider_of_cache[position] = cached
        return cached

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        offset, count = self._provider_range(provider)
        return tuple(self._timeline_entry(offset + k) for k in range(count))

    def _taken_at_ordinal(self, position: int) -> int:
        at = self._header.timelines_at + position * self._header.timeline_record
        return _TIMELINE_FIXED.unpack_from(self._buffer, at)[0]

    def in_force(self, provider: str, when: date) -> TimelineEntry | None:
        """The release in force at ``when`` (latest taken on or before).

        The bisect probes read one ``u32`` date per step straight from
        the records; only the winning entry is decoded.  Both edges
        answer "no snapshot" (None) explicitly: an empty timeline has
        nothing to resolve, and a ``when`` before the first release
        must not wrap to the provider's *last* snapshot.
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
        return self._buffer[at : at + _FP_WIDTH]

    def _fingerprint_slot(self, raw: bytes) -> int:
        """Where ``raw`` is, or would go, in the sorted fingerprint table."""
        lo, hi = 0, self._header.n_fingerprints
        while lo < hi:
            mid = (lo + hi) // 2
            if self._fingerprint_at(mid) < raw:
                lo = mid + 1
            else:
                hi = mid
        return lo

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
        position = self._fingerprint_slot(raw)
        if position < self._header.n_fingerprints and self._fingerprint_at(position) == raw:
            return position
        return None

    def _postings_at(self, position: int) -> tuple[Posting, ...]:
        offset, count = _RANGE.unpack_from(
            self._buffer, self._header.ranges_at + position * _RANGE.size
        )
        postings = []
        for k in range(count):
            (ref,) = _POSTING.unpack_from(
                self._buffer, self._header.postings_at + (offset + k) * _POSTING.size
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

    # -- the write path -----------------------------------------------------

    def merged(
        self,
        catalog_hash: str,
        snapshots: Iterable[tuple[CatalogRow, frozenset[str], frozenset[str]]],
    ) -> BinaryIndex:
        """A new in-memory index: this one with ``snapshots`` merged in.

        ``snapshots`` holds one ``(row, fingerprints, previous)`` per
        changed catalog key: its new row, its new fingerprint set, and
        the fingerprints this index holds for it (empty for a key it
        does not hold).  The merge is one sorted pass per section:

        - timeline records: a new key goes into its provider's slice in
          ``(taken_at, version)`` order, a held key's record is
          overwritten in place, and every record is re-padded when a
          field width grows;
        - postings: every held ref moves through one old→new table;
        - fingerprints: new ones are merged into the sorted table, the
          posting lists a change touches are rebuilt, and every other
          list is copied as one slice per run of untouched lists.

        Section order and widths are exactly what a one-shot build of
        the same catalog produces, so the bytes are too.
        """
        header, buffer = self._header, self._buffer
        changed: dict[str, dict[tuple[int, str], tuple]] = {}
        for snapshot in snapshots:
            row = snapshot[0]
            changed.setdefault(row.provider, {})[(row.taken_at.toordinal(), row.version)] = snapshot
        held = {name: (offset, count) for name, offset, count in self._providers()}
        names = sorted(held.keys() | changed.keys())
        provider_width = max((len(name.encode("utf-8")) for name in names), default=1)
        versions = [len(key[1].encode("utf-8")) for keys in changed.values() for key in keys]
        if header.n_timelines:
            versions.append(header.version_width)
        version_width = max(versions, default=1)
        old_record, fixed = header.timeline_record, _TIMELINE_FIXED.size
        grow = b"\x00" * (version_width - header.version_width)

        def held_records(first: int, count: int) -> bytes:
            at = header.timelines_at + first * old_record
            chunk = buffer[at : at + count * old_record]
            if not grow or not chunk:
                return chunk
            return b"".join(
                chunk[k : k + old_record] + grow for k in range(0, len(chunk), old_record)
            )

        # Timeline records, provider by provider, and the old→new ref table.
        remap = list(range(header.n_timelines))
        provider_rows: list[bytes] = []
        timeline_parts: list[bytes] = []
        added: dict[bytes, list[int]] = {}
        removed: dict[bytes, set[int]] = {}
        position = 0
        for name in names:
            offset, count = held.get(name, (0, 0))
            updates = changed.get(name)
            if updates is None:
                timeline_parts.append(held_records(offset, count))
                remap[offset : offset + count] = range(position, position + count)
                slots = count
            else:
                keys = {}
                for k in range(count):
                    entry = self._timeline_entry(offset + k)
                    keys[(entry.taken_at.toordinal(), entry.version)] = offset + k
                ordered = sorted(keys.keys() | updates.keys())
                for slot, key in enumerate(ordered, start=position):
                    ref = keys.get(key)
                    if ref is not None:
                        remap[ref] = slot
                    update = updates.get(key)
                    if update is None:
                        timeline_parts.append(held_records(ref, 1))
                        continue
                    row, fingerprints, previous = update
                    timeline_parts.append(
                        _TIMELINE_FIXED.pack(
                            key[0], row.entries, _hex_bytes(row.manifest_id, "manifest id")
                        )
                        + _padded(row.version, version_width, "version")
                    )
                    if ref is None:
                        previous = frozenset()
                    for fingerprint in fingerprints - previous:
                        added.setdefault(_hex_bytes(fingerprint, "fingerprint"), []).append(slot)
                    for fingerprint in previous - fingerprints:
                        removed.setdefault(_hex_bytes(fingerprint, "fingerprint"), set()).add(slot)
                slots = len(ordered)
            provider_rows.append(
                _padded(name, provider_width, "provider") + _RANGE.pack(position, slots)
            )
            position += slots

        # Postings: held refs renumbered once, then touched lists rebuilt.
        refs = _u32_array(buffer[header.postings_at : len(buffer)])
        if remap != list(range(len(remap))):
            refs = array("I", map(remap.__getitem__, refs))
        ranges = _u32_array(buffer[header.ranges_at : header.postings_at])
        n = header.n_fingerprints
        starts, counts = ranges[0::2], ranges[1::2]
        table = buffer[header.fingerprints_at : header.ranges_at]
        fingerprint_parts: list[bytes] = []
        out_counts, out_refs = array("I"), array("I")
        cursor = 0  # the first held list not yet emitted

        def copy_held(stop: int) -> None:
            if stop > cursor:
                fingerprint_parts.append(table[cursor * _FP_WIDTH : stop * _FP_WIDTH])
                out_counts.extend(counts[cursor:stop])
                end = starts[stop] if stop < n else len(refs)
                out_refs.extend(refs[starts[cursor] : end])

        for raw in sorted(added.keys() | removed.keys()):
            slot = self._fingerprint_slot(raw)
            copy_held(slot)
            if slot < n and self._fingerprint_at(slot) == raw:
                held_refs = refs[starts[slot] : starts[slot] + counts[slot]]
                cursor = slot + 1
            else:
                held_refs = ()
                cursor = slot
            refs_now = set(held_refs).difference(removed.get(raw, ()))
            refs_now.update(added.get(raw, ()))
            if refs_now:  # a fingerprint no snapshot holds any more drops out
                fingerprint_parts.append(raw)
                out_counts.append(len(refs_now))
                out_refs.extend(sorted(refs_now))
        copy_held(n)
        out_starts = accumulate(out_counts, initial=0)
        out_ranges = array("I", chain.from_iterable(zip(out_starts, out_counts)))
        return _assemble(
            catalog_hash,
            provider_width,
            version_width,
            provider_rows,
            timeline_parts,
            position,
            fingerprint_parts,
            out_ranges,
            out_refs,
        )


def read_binary_index(archive: Archive, catalog_hash: str) -> BinaryIndex | None:
    """Open ``trust.bin`` when present, intact, and fresh.

    ``None`` means "treat as absent": missing file, torn/foreign
    header, a payload that fails its checksum, or a catalog hash that
    is not ``catalog_hash``.
    """
    try:
        index = BinaryIndex(binary_index_path(archive))
    except (ArchiveError, ValueError, OSError):
        return None
    if index.catalog_hash != catalog_hash:
        index.close()
        return None
    return index


def load_binary_index(archive: Archive) -> BinaryIndex:
    """The query loader: fresh binary index, (re)built on demand.

    What :class:`~repro.archive.query.ArchiveQuery` opens.  When
    ``trust.bin`` is missing, stale or damaged the index is rebuilt
    from the manifests and persisted before the mmap is opened, so the
    cost is paid once per catalog version no matter how many workers
    follow.
    """
    from repro.archive.index import load_index  # circular at module scope

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
        BinaryIndex(path).close()
    except ArchiveError as exc:
        return (rel, str(exc))
    except OSError as exc:  # pragma: no cover - unreadable file
        return (rel, f"unreadable: {exc}")
    return None

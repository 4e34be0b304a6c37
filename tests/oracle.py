"""Slow, obviously-right references for the equivalence tests.

- The per-pair distance oracle for the tiled kernel: plain set
  arithmetic, one pair at a time — O(n² · |store|) and far too slow for
  production, which is exactly why it is the reference: nothing here
  shares code or op order with :mod:`repro.analysis.incidence`.
- The manifest oracle for the fixed-shape manifest writer: the payload
  built row by row from stored rows, encoded by the generic
  ``json.dumps(sort_keys=True, indent=1)``.
- The index oracle for ``trust.bin``: the dict-of-objects
  :class:`ArchiveIndex` built by a plain manifest scan with every
  posting list sorted by its ``(provider, taken_at, version)`` key, and
  the object-model encoder that lays it out record by record.  The
  production index merges sections instead; byte identity against
  this pair is the delta == rebuild contract.
"""

from __future__ import annotations

import hashlib
import json
import struct
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date

import numpy as np

from repro.archive import Archive, Posting, TimelineEntry
from repro.errors import ArchiveError


def jaccard_distance(a: frozenset[str], b: frozenset[str]) -> float:
    """1 - |A ∩ B| / |A ∪ B|; 0.0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def overlap_distance(a: frozenset[str], b: frozenset[str]) -> float:
    """1 - |A ∩ B| / min(|A|, |B|) (the ablation alternative)."""
    smaller = min(len(a), len(b))
    if smaller == 0:
        return 0.0 if not a and not b else 1.0
    return 1.0 - len(a & b) / smaller


PAIRWISE = {"jaccard": jaccard_distance, "overlap": overlap_distance}


def pairwise_distances(sets: list[frozenset[str]], metric: str = "jaccard") -> np.ndarray:
    """The full (n, n) matrix, one set comparison per pair."""
    fn = PAIRWISE[metric]
    n = len(sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = fn(sets[i], sets[j])
    return matrix


def manifest_payload(provider, version, taken_at: str, rows) -> dict:
    """A manifest payload from stored entry rows, checked row by row.

    Each row's three keys are looked up, then its trust pairs unpacked,
    before the next row is touched — so a malformed row raises the
    same ``KeyError``/``TypeError``/``ValueError`` the archive's
    structural walk does.
    """
    entries = []
    for row in rows:
        fingerprint, trust, distrust_after = (
            row["fingerprint"], row["trust"], row["distrust_after"]
        )
        entries.append(
            {
                "fingerprint": fingerprint,
                "trust": [[purpose, level] for purpose, level in trust],
                "distrust_after": distrust_after,
            }
        )
    return {
        "schema": 1,
        "provider": provider,
        "version": version,
        "taken_at": taken_at,
        "entries": entries,
    }


def manifest_bytes(payload: dict) -> bytes:
    """The canonical manifest bytes, by the generic JSON encoder."""
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("ascii")


# -- the index oracle -------------------------------------------------------


@dataclass(frozen=True)
class ArchiveIndex:
    """The index as plain maps, duck-typed to ``BinaryIndex``'s readers."""

    catalog_hash: str
    postings: dict  # fingerprint -> tuple[Posting, ...]
    timelines: dict  # provider -> tuple[TimelineEntry, ...] (date-ordered)

    @property
    def providers(self) -> list[str]:
        return sorted(self.timelines)

    @property
    def fingerprint_count(self) -> int:
        return len(self.postings)

    def postings_for(self, fingerprint: str) -> tuple[Posting, ...]:
        return self.postings.get(fingerprint, ())

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        try:
            return self.timelines[provider]
        except KeyError as exc:
            raise ArchiveError(f"no provider {provider!r} in archive") from exc

    def in_force(self, provider: str, when: date) -> TimelineEntry | None:
        timeline = self.timeline(provider)
        position = bisect_right(timeline, when, key=lambda t: t.taken_at)
        return timeline[position - 1] if position else None


def build_index(archive: Archive) -> ArchiveIndex:
    """Scan catalog + manifests into a fresh object-model index."""
    postings: dict[str, list[Posting]] = {}
    timelines: dict[str, list[TimelineEntry]] = {}
    for row in archive.read_catalog():
        timelines.setdefault(row.provider, []).append(
            TimelineEntry(
                taken_at=row.taken_at,
                version=row.version,
                manifest_id=row.manifest_id,
                entries=row.entries,
            )
        )
        manifest = archive.read_manifest(row.provider, row.manifest_id)
        for entry in manifest.entries:
            postings.setdefault(entry.fingerprint, []).append(
                Posting(provider=row.provider, version=row.version, taken_at=row.taken_at)
            )
    for timeline in timelines.values():
        timeline.sort(key=lambda t: (t.taken_at, t.version))
    for plist in postings.values():
        plist.sort(key=lambda p: (p.provider, p.taken_at.isoformat(), p.version))
    return ArchiveIndex(
        catalog_hash=archive.catalog_hash(),
        postings={fp: tuple(ps) for fp, ps in postings.items()},
        timelines={p: tuple(ts) for p, ts in timelines.items()},
    )


_HEADER = struct.Struct("<8sHHHHIIIIQ32s32s")
_TIMELINE_FIXED = struct.Struct("<II32s")
_RANGE = struct.Struct("<II")
_POSTING = struct.Struct("<I")


def _padded(value: str, width: int) -> bytes:
    return value.encode("utf-8").ljust(width, b"\x00")


def encode_binary_index(index: ArchiveIndex) -> bytes:
    """Lay an object-model index out as ``trust.bin``, record by record."""
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
            _padded(provider, provider_width) + _RANGE.pack(len(timeline_rows), len(timeline))
        )
        for entry in timeline:
            timeline_index[(provider, entry.taken_at, entry.version)] = len(timeline_rows)
            timeline_rows.append(
                _TIMELINE_FIXED.pack(
                    entry.taken_at.toordinal(), entry.entries, bytes.fromhex(entry.manifest_id)
                )
                + _padded(entry.version, version_width)
            )

    fingerprints = sorted(index.postings)
    fp_rows: list[bytes] = []
    range_rows: list[bytes] = []
    posting_rows: list[bytes] = []
    for fingerprint in fingerprints:
        postings = index.postings[fingerprint]
        fp_rows.append(bytes.fromhex(fingerprint))
        range_rows.append(_RANGE.pack(len(posting_rows), len(postings)))
        for posting in postings:
            ref = timeline_index[(posting.provider, posting.taken_at, posting.version)]
            posting_rows.append(_POSTING.pack(ref))

    payload = b"".join(provider_rows + timeline_rows + fp_rows + range_rows + posting_rows)
    header = _HEADER.pack(
        b"REPROIDX",
        1,
        0,
        provider_width,
        version_width,
        len(providers),
        len(timeline_rows),
        len(fingerprints),
        len(posting_rows),
        len(payload),
        bytes.fromhex(index.catalog_hash),
        hashlib.sha256(payload).digest(),
    )
    return header + payload


def decoded(index) -> ArchiveIndex:
    """Any index read back through its public readers, as plain maps."""
    return ArchiveIndex(
        catalog_hash=index.catalog_hash,
        postings={fp: index.postings_for(fp) for fp in index.postings},
        timelines={p: index.timeline(p) for p in index.providers},
    )


def index_bytes(archive: Archive) -> bytes:
    """The ``trust.bin`` a record-by-record scan of ``archive`` encodes to."""
    return encode_binary_index(build_index(archive))

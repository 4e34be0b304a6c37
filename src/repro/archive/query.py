"""The indexed query engine over an on-disk archive.

:class:`ArchiveQuery` answers the workloads the archive exists for —
point-in-time trust lookups, snapshot reconstruction, cross-provider
diffs, removal lags, and archive-backed analysis inputs — from disk,
without ever re-synthesizing or re-scraping the corpus.

Two layers keep repeated queries off the filesystem entirely:

- the persisted binary index (:mod:`repro.archive.binindex`, opened
  by header only) resolves *which* manifest a query needs without
  scanning the catalog or parsing the JSON postings, and
- two LRU caches hold decoded manifests and fully reconstructed
  snapshots, so the second query touching the same release costs a
  dictionary hit, not JSON parsing or DER decoding.

With ``allow_degraded=True`` the engine keeps serving a damaged
archive: corpus-level queries (``history``, ``dataset``,
``trusted_on``) skip snapshots whose storage raises
:class:`~repro.errors.ArchiveCorruptionError` — recording each skip in
:attr:`ArchiveQuery.skipped` — and :attr:`ArchiveQuery.quarantined`
reports what ``archive repair`` pulled out of the catalog, so callers
see intact data *and* an explicit account of what is missing.
Point lookups (``snapshot``, ``snapshot_at``) still raise: an
explicitly requested release is never silently absent.

Set-level queries (membership, diffs, incidence matrices) run on
manifests alone — the manifest stores each entry's purpose→level map,
so no certificate bytes are read until a caller actually asks for a
reconstructed :class:`~repro.store.snapshot.RootStoreSnapshot`.

Every engine pins the catalog hash it was constructed against and
checks (via a cheap ``stat`` of the catalog file) that it still holds
on each query; a re-ingest under a live engine raises
:class:`~repro.errors.ArchiveStaleError` instead of silently serving
point-in-time answers from the superseded catalog
(``refresh_on_stale=True`` reloads instead).  Cache traffic, degraded
skips, and stale detections are all reported to the active
:mod:`repro.obs` registry.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.archive.binindex import load_binary_index
from repro.archive.index import ArchiveIndex, Posting, TimelineEntry
from repro.archive.manifest import Archive, SnapshotManifest
from repro.archive.repair import QuarantinedSnapshot, read_quarantine
from repro.errors import ArchiveCorruptionError, ArchiveError, ArchiveStaleError
from repro.obs.instrument import count
from repro.obs.runtime import get_telemetry
from repro.store.history import Dataset, StoreHistory
from repro.store.purposes import TrustLevel, TrustPurpose
from repro.store.snapshot import RootStoreSnapshot

#: Default LRU capacities: manifests are small JSON, snapshots hold
#: parsed certificates — size the hot set to the whole corpus's release
#: count so steady-state serving never thrashes.
MANIFEST_CACHE_SIZE = 1024
SNAPSHOT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one LRU cache."""

    size: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _LRUCache:
    """A plain LRU map with observability counters.

    ``maxsize=0`` disables caching entirely: every ``get`` is a miss
    and ``put`` stores nothing.  (It used to be silently clamped to a
    size-1 cache, which is the opposite of what a caller asking for 0
    wants.)  Negative sizes are a caller bug and raise.
    """

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ArchiveError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return  # caching disabled
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> CacheStats:
        return CacheStats(size=len(self._data), hits=self.hits, misses=self.misses)


@dataclass(frozen=True)
class TrustObservation:
    """One provider's answer to a point-in-time trust question."""

    provider: str
    version: str
    taken_at: date  # release date of the snapshot in force
    present: bool
    level: TrustLevel | None  # for the queried purpose; None when absent/silent


@dataclass(frozen=True)
class ArchiveDiff:
    """Fingerprint-set difference between two archived releases."""

    provider_a: str
    version_a: str
    provider_b: str
    version_b: str
    only_a: frozenset[str]
    only_b: frozenset[str]
    shared: frozenset[str]

    @property
    def jaccard_distance(self) -> float:
        union = len(self.only_a) + len(self.only_b) + len(self.shared)
        if union == 0:
            return 0.0
        return 1.0 - len(self.shared) / union

    def describe(self) -> str:
        return (
            f"{self.provider_a}@{self.version_a} vs {self.provider_b}@{self.version_b}: "
            f"{len(self.shared)} shared, +{len(self.only_b)} only-{self.provider_b}, "
            f"-{len(self.only_a)} only-{self.provider_a} "
            f"(jaccard {self.jaccard_distance:.3f})"
        )


@dataclass(frozen=True)
class RemovalLag:
    """When one provider stopped shipping a fingerprint."""

    provider: str
    last_present: date  # release date of the last snapshot containing it
    removed_on: date | None  # first release without it (None = still shipped)
    lag_days: int | None  # vs. a reference date, when one was given


class ArchiveQuery:
    """Indexed, cached reads over one archive directory."""

    def __init__(
        self,
        archive: Archive | Path | str,
        *,
        manifest_cache: int = MANIFEST_CACHE_SIZE,
        snapshot_cache: int = SNAPSHOT_CACHE_SIZE,
        allow_degraded: bool = False,
        refresh_on_stale: bool = False,
        index_loader: Callable[[Archive], ArchiveIndex] | None = None,
    ):
        self.archive = archive if isinstance(archive, Archive) else Archive(archive)
        #: How this engine materializes its index — the default opens
        #: ``index/trust.bin`` by header only
        #: (:func:`~repro.archive.binindex.load_binary_index`, rebuilt
        #: when missing or stale); pass
        #: :func:`repro.archive.index.load_index` to parse the JSON pair
        #: instead.  Loaders must return an object with the
        #: ``ArchiveIndex`` query surface and ``catalog_hash``.
        self._index_loader = index_loader if index_loader is not None else load_binary_index
        with get_telemetry().span("archive.query.load_index", archive=str(self.archive.root)):
            self.index: ArchiveIndex = self._index_loader(self.archive)
        self._manifests = _LRUCache(manifest_cache)
        self._snapshots = _LRUCache(snapshot_cache)
        self.allow_degraded = allow_degraded
        #: Refresh the index and drop the caches when the catalog
        #: changes under us, instead of raising ArchiveStaleError.
        self.refresh_on_stale = refresh_on_stale
        #: The catalog hash every answer from this engine refers to.
        self.catalog_hash: str = self.index.catalog_hash
        self._catalog_stamp = self._stat_catalog()
        #: (provider, version, reason) for every snapshot a degraded
        #: corpus query had to skip in this session.
        self.skipped: list[tuple[str, str, str]] = []

    # -- staleness detection ---------------------------------------------

    def _stat_catalog(self):
        """A cheap change stamp of the catalog file (no hashing)."""
        try:
            stat = os.stat(self.archive.catalog_path)
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

    def _ensure_fresh(self) -> None:
        """Detect a catalog rewritten while this engine is alive.

        The manifest/snapshot LRU caches are keyed by content hash, so
        their *entries* never go stale — but the pinned index does: a
        re-ingest under a live engine would silently answer
        point-in-time lookups from the superseded catalog.  A cheap
        ``stat`` guards the common case; only a stamp change pays for
        re-hashing.  On a real hash change this raises
        :class:`~repro.errors.ArchiveStaleError` (or, with
        ``refresh_on_stale=True``, reloads the index, drops the caches,
        and keeps serving the new catalog).
        """
        stamp = self._stat_catalog()
        if stamp == self._catalog_stamp:
            return
        current = self.archive.catalog_hash()
        if current == self.catalog_hash:
            self._catalog_stamp = stamp  # byte-identical rewrite (e.g. re-ingest)
            return
        if not self.refresh_on_stale:
            count("repro_archive_stale_detected_total", action="raise")
            raise ArchiveStaleError(
                f"archive {self.archive.root} catalog changed under a live query "
                f"(pinned {self.catalog_hash[:12]}…, now "
                f"{(current or '<missing>')[:12]}…); construct a new ArchiveQuery "
                "or pass refresh_on_stale=True",
                pinned=self.catalog_hash,
                current=current,
            )
        count("repro_archive_stale_detected_total", action="refresh")
        with get_telemetry().span("archive.query.refresh", archive=str(self.archive.root)):
            self.index = self._index_loader(self.archive)
        self._manifests.clear()
        self._snapshots.clear()
        self.catalog_hash = self.index.catalog_hash
        self._catalog_stamp = stamp

    # -- degraded-mode accounting ----------------------------------------

    @property
    def quarantined(self) -> list[QuarantinedSnapshot]:
        """What ``archive repair`` removed and has not been re-ingested.

        Records whose snapshot key is back in the catalog (a later
        re-ingest restored them) are filtered out, so this is always
        the *currently* unavailable set.
        """
        self._ensure_fresh()
        in_catalog = {
            (provider, entry.version, entry.taken_at.isoformat())
            for provider, timeline in self.index.timelines.items()
            for entry in timeline
        }
        return [r for r in read_quarantine(self.archive.root) if r.key not in in_catalog]

    def _skip(self, provider: str, version: str, exc: ArchiveCorruptionError) -> None:
        count("repro_archive_degraded_skips_total", provider=provider)
        self.skipped.append((provider, version, str(exc)))

    # -- cache plumbing --------------------------------------------------

    def cache_stats(self) -> dict[str, CacheStats]:
        return {"manifest": self._manifests.stats(), "snapshot": self._snapshots.stats()}

    def _manifest(self, provider: str, manifest_id: str) -> SnapshotManifest:
        cached = self._manifests.get(manifest_id)
        if cached is not None:
            count("repro_archive_cache_total", cache="manifest", outcome="hit")
            return cached
        count("repro_archive_cache_total", cache="manifest", outcome="miss")
        manifest = self.archive.read_manifest(provider, manifest_id)
        self._manifests.put(manifest_id, manifest)
        return manifest

    def _snapshot(self, provider: str, entry: TimelineEntry) -> RootStoreSnapshot:
        cached = self._snapshots.get(entry.manifest_id)
        if cached is not None:
            count("repro_archive_cache_total", cache="snapshot", outcome="hit")
            return cached
        count("repro_archive_cache_total", cache="snapshot", outcome="miss")
        snapshot = self.archive.load_snapshot(self._manifest(provider, entry.manifest_id))
        self._snapshots.put(entry.manifest_id, snapshot)
        return snapshot

    # -- catalog views ---------------------------------------------------

    @property
    def providers(self) -> list[str]:
        self._ensure_fresh()
        return self.index.providers

    def timeline(self, provider: str) -> tuple[TimelineEntry, ...]:
        self._ensure_fresh()
        return self.index.timeline(provider)

    def release(self, provider: str, version: str) -> TimelineEntry:
        self._ensure_fresh()
        for entry in self.index.timeline(provider):
            if entry.version == version:
                return entry
        raise ArchiveError(f"no version {version!r} of provider {provider!r} in archive")

    # -- point-in-time trust ---------------------------------------------

    def trusted_on(
        self,
        fingerprint: str,
        when: date,
        *,
        purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
        providers: list[str] | None = None,
    ) -> list[TrustObservation]:
        """Which providers trusted ``fingerprint`` on date ``when``.

        For each provider the release in force at ``when`` is resolved
        by timeline bisection and its manifest consulted — no DER is
        read.  ``purpose=None`` asks about raw presence; otherwise
        ``present`` means the entry exists *and* is trusted for the
        purpose, with the raw level reported either way.
        """
        self._ensure_fresh()
        observations: list[TrustObservation] = []
        with get_telemetry().span(
            "archive.query.trusted_on", fingerprint=fingerprint[:16], when=when.isoformat()
        ):
            observations = self._trusted_on(fingerprint, when, purpose, providers)
        return observations

    def _resolve_in_force(self, when, providers) -> list[tuple[str, TimelineEntry, SnapshotManifest]]:
        """One timeline bisect + manifest fetch per provider at ``when``."""
        resolved = []
        for provider in providers if providers is not None else self.index.providers:
            entry = self.index.in_force(provider, when)
            if entry is None:
                continue  # provider had no release yet at `when`
            try:
                manifest = self._manifest(provider, entry.manifest_id)
            except ArchiveCorruptionError as exc:
                if not self.allow_degraded:
                    raise
                self._skip(provider, entry.version, exc)
                continue
            resolved.append((provider, entry, manifest))
        return resolved

    @staticmethod
    def _observe(provider, entry, manifest, fingerprint, purpose) -> TrustObservation:
        stored = manifest.get(fingerprint)
        if stored is None:
            present, level = False, None
        elif purpose is None:
            present, level = True, None
        else:
            level = stored.level_for(purpose)
            present = level is TrustLevel.TRUSTED
        return TrustObservation(
            provider=provider,
            version=entry.version,
            taken_at=entry.taken_at,
            present=present,
            level=level,
        )

    def _trusted_on(self, fingerprint, when, purpose, providers) -> list[TrustObservation]:
        return [
            self._observe(provider, entry, manifest, fingerprint, purpose)
            for provider, entry, manifest in self._resolve_in_force(when, providers)
        ]

    def trusted_on_many(
        self,
        fingerprints: Iterable[str],
        when: date,
        *,
        purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
        providers: list[str] | None = None,
    ) -> list[list[TrustObservation]]:
        """Batch :meth:`trusted_on`: many fingerprints, one timeline walk.

        The per-provider work — timeline bisection and the manifest
        fetch — is resolved exactly once for the whole batch instead of
        once per fingerprint; each fingerprint then costs a dictionary
        probe per provider.  Returns one observation list per input
        fingerprint, in input order, element-wise identical to calling
        :meth:`trusted_on` in a loop.  This is the library-level
        primitive behind the serving daemon's batch endpoint.
        """
        self._ensure_fresh()
        batch = list(fingerprints)
        with get_telemetry().span(
            "archive.query.trusted_on_many", batch=len(batch), when=when.isoformat()
        ):
            resolved = self._resolve_in_force(when, providers)
            return [
                [
                    self._observe(provider, entry, manifest, fingerprint, purpose)
                    for provider, entry, manifest in resolved
                ]
                for fingerprint in batch
            ]

    def ever_shipped(self, fingerprint: str) -> tuple[Posting, ...]:
        """Every (provider, release) that ever contained the fingerprint."""
        self._ensure_fresh()
        return self.index.postings_for(fingerprint)

    # -- snapshot reconstruction -----------------------------------------

    def snapshot(self, provider: str, version: str) -> RootStoreSnapshot:
        """Reconstruct one release as a full snapshot (LRU cached)."""
        return self._snapshot(provider, self.release(provider, version))

    def snapshot_at(self, provider: str, when: date) -> RootStoreSnapshot | None:
        """The reconstructed snapshot in force at ``when`` (or None)."""
        self._ensure_fresh()
        entry = self.index.in_force(provider, when)
        return self._snapshot(provider, entry) if entry is not None else None

    def history(self, provider: str) -> StoreHistory:
        """A provider's full history, reconstructed release by release.

        In degraded mode, releases whose storage is damaged are skipped
        (and recorded in :attr:`skipped`) instead of failing the whole
        history.
        """
        self._ensure_fresh()
        history = StoreHistory(provider)
        for entry in self.index.timeline(provider):
            try:
                history.add(self._snapshot(provider, entry))
            except ArchiveCorruptionError as exc:
                if not self.allow_degraded:
                    raise
                self._skip(provider, entry.version, exc)
        return history

    def dataset(self, *, providers: list[str] | None = None) -> Dataset:
        """The whole archived corpus as an in-memory :class:`Dataset`.

        This is the bridge back to every existing analysis: anything
        that consumes a ``Dataset`` can now run from the archive
        instead of a freshly synthesized corpus.
        """
        dataset = Dataset()
        for provider in providers if providers is not None else self.providers:
            dataset.add_history(self.history(provider))
        return dataset

    # -- diffs and removal lags ------------------------------------------

    def diff(
        self,
        provider_a: str,
        provider_b: str,
        *,
        when: date | None = None,
        version_a: str | None = None,
        version_b: str | None = None,
        purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
    ) -> ArchiveDiff:
        """Pairwise fingerprint diff between two releases (manifests only).

        Pick the releases either by explicit versions or by the shared
        point-in-time ``when``; exactly one selection style per side.
        """
        entry_a = (
            self.release(provider_a, version_a)
            if version_a is not None
            else self._require_in_force(provider_a, when)
        )
        entry_b = (
            self.release(provider_b, version_b)
            if version_b is not None
            else self._require_in_force(provider_b, when)
        )
        set_a = self._manifest(provider_a, entry_a.manifest_id).fingerprints(purpose)
        set_b = self._manifest(provider_b, entry_b.manifest_id).fingerprints(purpose)
        return ArchiveDiff(
            provider_a=provider_a,
            version_a=entry_a.version,
            provider_b=provider_b,
            version_b=entry_b.version,
            only_a=frozenset(set_a - set_b),
            only_b=frozenset(set_b - set_a),
            shared=frozenset(set_a & set_b),
        )

    def _require_in_force(self, provider: str, when: date | None) -> TimelineEntry:
        self._ensure_fresh()
        if when is None:
            raise ArchiveError(f"need either a version or a date for provider {provider!r}")
        entry = self.index.in_force(provider, when)
        if entry is None:
            raise ArchiveError(f"provider {provider!r} has no release on or before {when}")
        return entry

    def removal_lags(
        self, fingerprint: str, *, reference: date | None = None
    ) -> list[RemovalLag]:
        """Per provider: when the fingerprint was last shipped and first dropped.

        Mirrors :meth:`StoreHistory.trusted_until` but runs on manifests
        via the posting index — only providers that ever shipped the
        root are visited.  ``reference`` (e.g. an incident's disclosure
        date) turns removal dates into response lags in days.
        """
        self._ensure_fresh()
        by_provider: dict[str, list[Posting]] = {}
        for posting in self.index.postings_for(fingerprint):
            by_provider.setdefault(posting.provider, []).append(posting)
        lags: list[RemovalLag] = []
        for provider in sorted(by_provider):
            present_dates = {(p.taken_at, p.version) for p in by_provider[provider]}
            last_present = max(d for d, _ in present_dates)
            removed_on = None
            for entry in self.index.timeline(provider):
                if entry.taken_at > last_present:
                    removed_on = entry.taken_at
                    break
            lag = (removed_on - reference).days if removed_on and reference else None
            lags.append(
                RemovalLag(
                    provider=provider,
                    last_present=last_present,
                    removed_on=removed_on,
                    lag_days=lag,
                )
            )
        return lags

    # -- archive-backed analysis inputs ----------------------------------

    def collect_labels(
        self, *, since: date | None = None, providers: list[str] | None = None
    ) -> list[tuple[str, TimelineEntry]]:
        """(provider, release) pairs in the analysis layer's canonical order."""
        self._ensure_fresh()
        result = []
        for provider in providers if providers is not None else self.index.providers:
            for entry in self.index.timeline(provider):
                if since is not None and entry.taken_at < since:
                    continue
                result.append((provider, entry))
        return result

    def _fingerprint_sets(
        self,
        *,
        purpose: TrustPurpose | None,
        since: date | None,
        providers: list[str] | None,
    ) -> tuple[tuple[tuple[str, date, str], ...], list[frozenset[str]]]:
        """Labels plus per-snapshot fingerprint sets, straight from manifests."""
        selected = self.collect_labels(since=since, providers=providers)
        if not selected:
            raise ArchiveError("no archived snapshots match the selection")
        sets = [
            self._manifest(provider, entry.manifest_id).fingerprints(purpose)
            for provider, entry in selected
        ]
        labels = tuple(
            (provider, entry.taken_at, entry.version) for provider, entry in selected
        )
        return labels, sets

    def incidence(
        self,
        *,
        purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
        since: date | None = None,
        providers: list[str] | None = None,
        sparse: bool = False,
    ):
        """The snapshots × fingerprints incidence matrix, from manifests.

        Feeds the vectorized analysis substrate
        (:mod:`repro.analysis.incidence`) directly from the archive: no
        corpus synthesis, no scraping, no certificate parsing — the
        purpose filter runs on the trust bits stored in each manifest.

        With ``sparse=True`` returns a
        :class:`~repro.analysis.sparse.SparseIncidence` instead — the
        CSR-style representation, whose footprint tracks the number of
        incidences rather than snapshots × universe.  At real store
        densities it is about the size of the dense *bool* matrix
        (BENCH_scale: 2.54 MB CSR vs 2.43 MB bool) and an eighth of the
        float64 matrix the distance algebra would otherwise densify; the
        gain is in the blocked products, which never hold more than
        two dense slabs.
        """
        from repro.analysis.incidence import IncidenceMatrix
        from repro.analysis.sparse import sparse_from_sets

        labels, sets = self._fingerprint_sets(
            purpose=purpose, since=since, providers=providers
        )
        if sparse:
            return sparse_from_sets(labels, sets)
        universe = sorted(frozenset().union(*sets))
        column = {fingerprint: k for k, fingerprint in enumerate(universe)}
        matrix = np.zeros((len(sets), len(universe)), dtype=bool)
        for row, fingerprints in enumerate(sets):
            if fingerprints:
                matrix[row, [column[f] for f in fingerprints]] = True
        return IncidenceMatrix(labels=labels, fingerprints=tuple(universe), matrix=matrix)

    def distance_matrix(
        self,
        *,
        metric: str = "jaccard",
        purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
        since: date | None = None,
        providers: list[str] | None = None,
        blocked: bool = False,
        block_rows: int | None = None,
    ):
        """The pairwise distance matrix over archived snapshots.

        Equivalent to ``repro.analysis.distance_matrix`` over the live
        corpus (the equivalence tests assert element-wise identity) but
        sourced purely from the archive.

        With ``blocked=True`` the matrix is computed tile-by-tile from
        the sparse incidence — element-wise identical output, but peak
        memory stays one (n, n) output buffer plus two
        (``block_rows`` × universe) slabs instead of the dense boolean
        matrix and its full-size temporaries.
        """
        from repro.analysis.incidence import jaccard_distances, overlap_distances
        from repro.analysis.jaccard import LabelledMatrix
        from repro.analysis.sparse import (
            DEFAULT_BLOCK_ROWS,
            blocked_jaccard_distances,
            blocked_overlap_distances,
        )

        vectorized = {"jaccard": jaccard_distances, "overlap": overlap_distances}
        tiled = {"jaccard": blocked_jaccard_distances, "overlap": blocked_overlap_distances}
        if metric not in vectorized:
            raise ArchiveError(f"unknown metric {metric!r}")
        if blocked:
            sparse = self.incidence(
                purpose=purpose, since=since, providers=providers, sparse=True
            )
            matrix = tiled[metric](
                sparse, block_rows=block_rows or DEFAULT_BLOCK_ROWS
            )
            return LabelledMatrix(labels=sparse.labels, matrix=matrix)
        incidence = self.incidence(purpose=purpose, since=since, providers=providers)
        return LabelledMatrix(
            labels=incidence.labels, matrix=vectorized[metric](incidence)
        )

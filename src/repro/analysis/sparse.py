"""Sparse incidence + blocked distance products — the out-of-core substrate.

The dense boolean matrix of :mod:`repro.analysis.incidence` is
snapshots × fingerprint-universe; at the seeded 649-snapshot corpus it
is small, but the scaled populations of :mod:`repro.simulation.population`
(hundreds of derivative providers, tens of thousands of snapshots) blow
it up quadratically in the places that matter: the (n, n) float64
temporaries of the distance algebra and the O(n²)-per-iteration SMACOF
ordination.

This module keeps the exact same answers while bounding the working
set:

- :class:`SparseIncidence` stores the membership relation CSR-style —
  one ``int32`` column id per (snapshot, fingerprint) incidence, plus a
  row-pointer array — the same postings shape as the archive's
  persisted fingerprint index.  At real store densities it is about
  the size of the dense *bool* matrix (BENCH_scale: 2.54 MB CSR vs
  2.43 MB bool) and an eighth of the float64 one.
- :func:`blocked_jaccard_distances` / :func:`blocked_overlap_distances`
  compute the full distance matrix tile by tile: at any instant only
  two (block × universe) slabs and one (block × block) tile are live
  beyond the output buffer.  Every intermediate count is a small exact
  integer, so the results are **element-wise identical** to the dense
  path (the equivalence tests assert 0.0 difference, not 1e-12).
- :func:`cross_distances` produces the (k, n) landmark-to-everything
  strip that :func:`repro.analysis.mds.landmark_mds` consumes, without
  ever forming an (n, n) matrix — the piece that keeps ordination
  linear in corpus size.
- :func:`maxmin_landmarks` picks well-spread pivot rows by greedy
  farthest-point traversal, one distance strip per landmark over
  column slabs densified once.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.analysis.incidence import IncidenceMatrix
from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot

#: Default row-block height for the blocked products.  At typical
#: fingerprint-universe widths (a few thousand columns) a 512-row
#: float64 slab is ~10–20 MB — big enough for BLAS-shaped matmuls,
#: small enough that two slabs never rival the dense matrix.
DEFAULT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class SparseIncidence:
    """CSR-style snapshots × fingerprints membership relation.

    Attributes:
        labels: (provider, taken_at, version) per row, in input order.
        fingerprints: the sorted fingerprint universe, one per column.
        indptr: int64 array of length ``n_rows + 1``; row ``i``'s
            column ids are ``indices[indptr[i]:indptr[i + 1]]``.
        indices: int32 column ids, sorted within each row.
    """

    labels: tuple[tuple[str, date, str], ...]
    fingerprints: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.indptr.shape != (len(self.labels) + 1,):
            raise AnalysisError(
                f"indptr length {self.indptr.shape} does not match "
                f"{len(self.labels)} rows"
            )
        if int(self.indptr[-1]) != len(self.indices):
            raise AnalysisError(
                f"indptr final value {int(self.indptr[-1])} does not match "
                f"{len(self.indices)} stored incidences"
            )
        if len(self.indices) and int(self.indices.max()) >= len(self.fingerprints):
            raise AnalysisError("column id exceeds the fingerprint universe")

    # -- shape and size ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_cols(self) -> int:
        return len(self.fingerprints)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index arrays (the representation's footprint)."""
        return self.indptr.nbytes + self.indices.nbytes

    @property
    def set_sizes(self) -> np.ndarray:
        """Per-snapshot fingerprint-set cardinality (int64 vector)."""
        return np.diff(self.indptr)

    def row_set(self, index: int) -> frozenset[str]:
        """The fingerprint set of one snapshot, reconstructed from the row."""
        columns = self.indices[self.indptr[index] : self.indptr[index + 1]]
        return frozenset(self.fingerprints[int(k)] for k in columns)

    # -- dense interop -----------------------------------------------------

    def to_dense(self) -> IncidenceMatrix:
        """Materialize the dense boolean matrix (small corpora only)."""
        matrix = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        row_ids = np.repeat(np.arange(self.n_rows), self.set_sizes)
        matrix[row_ids, self.indices] = True
        return IncidenceMatrix(
            labels=self.labels, fingerprints=self.fingerprints, matrix=matrix
        )

    def slab(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` densified as a float64 (block × universe) slab."""
        stop = min(stop, self.n_rows)
        width = stop - start
        slab = np.zeros((width, self.n_cols), dtype=np.float64)
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        if hi > lo:
            segment_sizes = self.set_sizes[start:stop]
            rows = np.repeat(np.arange(width), segment_sizes)
            slab[rows, self.indices[lo:hi]] = 1.0
        return slab

    def rows_slab(self, rows: Sequence[int]) -> np.ndarray:
        """Arbitrary rows densified as a float64 (len(rows) × universe) slab."""
        slab = np.zeros((len(rows), self.n_cols), dtype=np.float64)
        for out_row, index in enumerate(rows):
            lo, hi = int(self.indptr[index]), int(self.indptr[index + 1])
            slab[out_row, self.indices[lo:hi]] = 1.0
        return slab


def sparse_from_sets(
    labels: Iterable[tuple[str, date, str]],
    sets: list[frozenset[str]],
) -> SparseIncidence:
    """Build a :class:`SparseIncidence` from per-snapshot fingerprint sets.

    The fingerprint universe is the sorted union across all sets, so
    column order is deterministic regardless of input order — identical
    to the dense builder's universe.
    """
    labels = tuple(labels)
    if len(labels) != len(sets):
        raise AnalysisError(f"{len(labels)} labels but {len(sets)} fingerprint sets")
    if not sets:
        raise AnalysisError("no snapshots to index")
    universe = sorted(frozenset().union(*sets))
    column = {fingerprint: k for k, fingerprint in enumerate(universe)}
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for row, fingerprints in enumerate(sets):
        columns = np.sort(
            np.fromiter((column[f] for f in fingerprints), dtype=np.int32, count=len(fingerprints))
        )
        chunks.append(columns)
        indptr[row + 1] = indptr[row] + len(columns)
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)
    ).astype(np.int32, copy=False)
    return SparseIncidence(
        labels=labels, fingerprints=tuple(universe), indptr=indptr, indices=indices
    )


def build_sparse_incidence(
    snapshots: list[RootStoreSnapshot],
    *,
    purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
) -> SparseIncidence:
    """The sparse counterpart of :func:`repro.analysis.incidence.build_incidence`."""
    if not snapshots:
        raise AnalysisError("no snapshots to index")
    with stage_timer(
        "analysis.sparse_incidence",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "sparse_incidence"},
        snapshots=len(snapshots),
    ):
        labels = tuple((s.provider, s.taken_at, s.version) for s in snapshots)
        sets = [s.fingerprints(purpose) for s in snapshots]
        return sparse_from_sets(labels, sets)


# -- tile arithmetic (shared empty-set conventions) ------------------------


def _jaccard_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Jaccard distances for one tile, in place over the count tile.

    The exact op sequence of the dense :func:`jaccard_distances` — same
    integer-valued operands through the same instructions, so tiles are
    bit-identical to the corresponding dense sub-blocks.
    """
    unions = np.add.outer(sizes_a, sizes_b)
    unions -= intersections
    empty = unions == 0.0
    np.maximum(unions, 1.0, out=unions)
    intersections /= unions
    np.subtract(1.0, intersections, out=intersections)
    intersections[empty] = 0.0
    return intersections


def _overlap_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Overlap-coefficient distances for one tile, in place."""
    smaller = np.minimum.outer(sizes_a, sizes_b)
    some_empty = smaller == 0.0
    both_empty = np.logical_and.outer(sizes_a == 0.0, sizes_b == 0.0)
    np.maximum(smaller, 1.0, out=smaller)
    intersections /= smaller
    np.subtract(1.0, intersections, out=intersections)
    intersections[some_empty] = 1.0
    intersections[both_empty] = 0.0
    return intersections


_TILES: dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    "jaccard": _jaccard_tile,
    "overlap": _overlap_tile,
}


def _blocked_distances(
    sparse: SparseIncidence, metric: str, block_rows: int
) -> np.ndarray:
    if metric not in _TILES:
        raise AnalysisError(f"unknown metric {metric!r}")
    if block_rows < 1:
        raise AnalysisError(f"block_rows must be >= 1, got {block_rows}")
    tile_fn = _TILES[metric]
    n = sparse.n_rows
    sizes = sparse.set_sizes.astype(np.float64)
    out = np.empty((n, n), dtype=np.float64)
    starts = range(0, n, block_rows)
    for a0 in starts:
        a1 = min(a0 + block_rows, n)
        slab_a = sparse.slab(a0, a1)
        for b0 in range(a0, n, block_rows):
            b1 = min(b0 + block_rows, n)
            slab_b = slab_a if b0 == a0 else sparse.slab(b0, b1)
            tile = tile_fn(slab_a @ slab_b.T, sizes[a0:a1], sizes[b0:b1])
            out[a0:a1, b0:b1] = tile
            if b0 != a0:
                out[b0:b1, a0:a1] = tile.T
    np.fill_diagonal(out, 0.0)
    return out


def blocked_jaccard_distances(
    sparse: SparseIncidence, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """Full Jaccard distance matrix from the sparse incidence, tile by tile.

    Element-wise identical to
    ``jaccard_distances(sparse.to_dense())`` — same conventions, same
    exact integer counts — but never materializes more than two
    (block × universe) slabs of dense data beyond the output buffer.
    """
    with stage_timer(
        "analysis.blocked_distance",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "blocked_distance"},
        metric_name="jaccard",
        snapshots=sparse.n_rows,
    ):
        return _blocked_distances(sparse, "jaccard", block_rows)


def blocked_overlap_distances(
    sparse: SparseIncidence, *, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """Full overlap-coefficient distance matrix, tile by tile (see above)."""
    with stage_timer(
        "analysis.blocked_distance",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "blocked_distance"},
        metric_name="overlap",
        snapshots=sparse.n_rows,
    ):
        return _blocked_distances(sparse, "overlap", block_rows)


def _column_slabs(
    sparse: SparseIncidence, block_rows: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(b0, b1, slab)`` for each block of rows, densified as iterated."""
    n = sparse.n_rows
    for b0 in range(0, n, block_rows):
        b1 = min(b0 + block_rows, n)
        yield b0, b1, sparse.slab(b0, b1)


def _fill_strip(
    out: np.ndarray,
    tile_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pivot_slab: np.ndarray,
    pivot_sizes: np.ndarray,
    blocks: Iterable[tuple[int, int, np.ndarray]],
    sizes: np.ndarray,
) -> np.ndarray:
    """Pivot rows against every ``(b0, b1, slab)`` column block, into ``out``."""
    for b0, b1, slab_b in blocks:
        out[:, b0:b1] = tile_fn(pivot_slab @ slab_b.T, pivot_sizes, sizes[b0:b1])
    return out


def cross_distances(
    sparse: SparseIncidence,
    rows: Sequence[int],
    *,
    metric: str = "jaccard",
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """Distances from the selected rows to **every** row: a (k, n) strip.

    This is the landmark-MDS input: k pivot rows against the whole
    corpus, computed per column-block so the working set is the
    (k × universe) pivot slab plus one (block × universe) slab — never
    an (n, n) matrix.  Row ``i`` equals row ``rows[i]`` of the full
    blocked matrix exactly.
    """
    if metric not in _TILES:
        raise AnalysisError(f"unknown metric {metric!r}")
    rows = [int(r) for r in rows]
    n = sparse.n_rows
    if any(r < 0 or r >= n for r in rows):
        raise AnalysisError(f"row index out of range for {n} rows")
    sizes = sparse.set_sizes.astype(np.float64)
    out = _fill_strip(
        np.empty((len(rows), n), dtype=np.float64),
        _TILES[metric],
        sparse.rows_slab(rows),
        sizes[rows],
        _column_slabs(sparse, block_rows),
        sizes,
    )
    for strip_row, index in enumerate(rows):
        out[strip_row, index] = 0.0  # the blocked matrix's zeroed diagonal
    return out


def maxmin_landmarks(
    sparse: SparseIncidence,
    k: int,
    *,
    metric: str = "jaccard",
    first: int = 0,
) -> tuple[int, ...]:
    """Greedy farthest-point (maxmin) landmark selection.

    Starting from row ``first``, repeatedly adds the row with the
    largest minimum distance to the rows already chosen (lowest index
    wins ties), the standard pivot heuristic for landmark MDS: k
    distance strips, no (n, n) matrix.  Deterministic.

    Every strip runs the same per-block matmul and tile arithmetic as
    :func:`cross_distances` on the same operands, but the column blocks
    are densified once and shared by all k strips — the whole corpus
    as float64 slabs (n × universe), instead of re-densifying it per
    landmark.
    """
    n = sparse.n_rows
    if k < 2:
        raise AnalysisError(f"need at least two landmarks, got {k}")
    if k > n:
        raise AnalysisError(f"cannot pick {k} landmarks from {n} rows")
    if first < 0 or first >= n:
        raise AnalysisError(f"first landmark {first} out of range for {n} rows")
    if metric not in _TILES:
        raise AnalysisError(f"unknown metric {metric!r}")
    tile_fn = _TILES[metric]
    sizes = sparse.set_sizes.astype(np.float64)
    blocks = list(_column_slabs(sparse, DEFAULT_BLOCK_ROWS))
    strip = np.empty((1, n), dtype=np.float64)

    def distances_from(row: int) -> np.ndarray:
        _fill_strip(strip, tile_fn, sparse.rows_slab([row]), sizes[[row]], blocks, sizes)
        return strip[0]

    chosen = [first]
    min_distance = distances_from(first).copy()
    min_distance[first] = -1.0  # never re-chosen
    for _ in range(k - 1):
        candidate = int(np.argmax(min_distance))
        chosen.append(candidate)
        np.minimum(min_distance, distances_from(candidate), out=min_distance)
        min_distance[candidate] = -1.0
    return tuple(sorted(chosen))

"""The fingerprint incidence matrix and the one tiled distance kernel.

The ordination (Section 4) needs every pairwise set comparison between
snapshot fingerprint sets.  Doing that per pair is O(n² · |store|) in
pure Python; at the paper's 619 snapshots it is already the dominant
cost, and at CT-log scale (Korzhitskii & Carlsson) it is intractable.

This module maps the snapshot list onto a single boolean *incidence
matrix* ``M`` of shape (snapshots × fingerprint-universe): ``M[i, k]``
is true when snapshot ``i`` contains fingerprint ``k``.  Every pairwise
statistic then falls out of matrix products:

- intersections: ``M @ M.T`` (exact — counts are small integers, and
  float64 represents them and their quotients identically to Python's
  int/int division),
- set sizes: the row sums,
- unions: inclusion–exclusion, ``|A| + |B| − |A ∩ B|``.

At the fingerprint universes real stores produce (280 columns at 8,691
snapshots) the bool matrix is the smallest faithful representation —
about the size of a CSR index, an eighth of a float64 copy — so it is
the only one.  The memory that matters is the (n, n) float64 *output*,
and the kernel keeps everything else small by working in row tiles of
:data:`TILE_ROWS`: each tile multiplies two float64 slabs
``matrix[b0:b1].astype(np.float64)`` and applies the metric's tile
arithmetic in place.  The kernel yields

- full matrices (:func:`jaccard_distances`, :func:`overlap_distances`),
  holding two slabs and one tile beyond the output;
- (k, n) strips (:func:`cross_distances`), the landmark-MDS input,
  without ever forming an (n, n) matrix;
- maxmin landmarks (:func:`maxmin_landmarks`), k strips over column
  slabs densified once.

Every path runs the same instructions on the same integer-valued
operands, so a strip row equals the matching full-matrix row exactly,
and both equal the per-pair set formulas (the equivalence tests assert
``array_equal`` for every metric and tile height).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot

#: Row-tile height of the distance kernel.  At real fingerprint
#: universes (a few hundred columns) a 512-row float64 slab is ~1 MB and
#: a tile ~2 MB: big enough for BLAS-shaped matmuls, small enough that
#: the working set beyond the (n, n) output stays a few MB.
TILE_ROWS = 512


@dataclass(frozen=True)
class IncidenceMatrix:
    """Snapshots × fingerprint-universe boolean membership matrix.

    Attributes:
        labels: (provider, taken_at, version) per row, in input order.
        fingerprints: the sorted fingerprint universe, one per column.
        matrix: boolean (len(labels), len(fingerprints)) array.
    """

    labels: tuple[tuple[str, date, str], ...]
    fingerprints: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        expected = (len(self.labels), len(self.fingerprints))
        if self.matrix.shape != expected:
            raise AnalysisError(
                f"incidence shape {self.matrix.shape} does not match {expected}"
            )

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def set_sizes(self) -> np.ndarray:
        """Per-snapshot fingerprint-set cardinality (int64 vector)."""
        return self.matrix.sum(axis=1)

    def row_set(self, index: int) -> frozenset[str]:
        """The fingerprint set of one snapshot, reconstructed from the row."""
        columns = np.flatnonzero(self.matrix[index])
        return frozenset(self.fingerprints[k] for k in columns)


def incidence_from_sets(
    labels: Iterable[tuple[str, date, str]],
    sets: list[frozenset[str]],
) -> IncidenceMatrix:
    """Build the incidence matrix from per-snapshot fingerprint sets.

    The fingerprint universe is the sorted union across all sets, so
    column order is deterministic regardless of input order.
    """
    labels = tuple(labels)
    if len(labels) != len(sets):
        raise AnalysisError(f"{len(labels)} labels but {len(sets)} fingerprint sets")
    if not sets:
        raise AnalysisError("no snapshots to index")
    universe = sorted(frozenset().union(*sets))
    column = {fingerprint: k for k, fingerprint in enumerate(universe)}
    matrix = np.zeros((len(sets), len(universe)), dtype=bool)
    for row, fingerprints in enumerate(sets):
        if fingerprints:
            matrix[row, [column[f] for f in fingerprints]] = True
    return IncidenceMatrix(labels=labels, fingerprints=tuple(universe), matrix=matrix)


def build_incidence(
    snapshots: list[RootStoreSnapshot],
    *,
    purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
) -> IncidenceMatrix:
    """Build the incidence matrix over ``snapshots``' fingerprint sets."""
    if not snapshots:
        raise AnalysisError("no snapshots to index")
    with stage_timer(
        "analysis.incidence",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "incidence"},
        snapshots=len(snapshots),
    ):
        return incidence_from_sets(
            ((s.provider, s.taken_at, s.version) for s in snapshots),
            [s.fingerprints(purpose) for s in snapshots],
        )


# -- tile arithmetic (shared empty-set conventions) ------------------------


def _jaccard_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Jaccard distances for one tile, in place over the count tile.

    1 − |A∩B| / |A∪B|, with two empty sets at distance 0.0.
    """
    unions = np.add.outer(sizes_a, sizes_b)
    unions -= intersections  # |A| + |B| − |A∩B|, in place
    empty = unions == 0.0  # both sets empty (intersection is 0 there too)
    np.maximum(unions, 1.0, out=unions)  # safe divisor; numerator is 0 where it mattered
    intersections /= unions
    np.subtract(1.0, intersections, out=intersections)
    intersections[empty] = 0.0
    return intersections


def _overlap_tile(
    intersections: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Overlap-coefficient distances for one tile, in place.

    1 − |A∩B| / min(|A|, |B|); when the smaller set is empty the
    distance is 0.0 for two empty sets and 1.0 otherwise.
    """
    smaller = np.minimum.outer(sizes_a, sizes_b)
    some_empty = smaller == 0.0
    both_empty = np.logical_and.outer(sizes_a == 0.0, sizes_b == 0.0)
    np.maximum(smaller, 1.0, out=smaller)
    intersections /= smaller
    np.subtract(1.0, intersections, out=intersections)
    intersections[some_empty] = 1.0
    intersections[both_empty] = 0.0
    return intersections


TileFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

_TILES: dict[str, TileFn] = {"jaccard": _jaccard_tile, "overlap": _overlap_tile}


def _tile_fn(metric: str) -> TileFn:
    try:
        return _TILES[metric]
    except KeyError:
        raise AnalysisError(f"unknown metric {metric!r}") from None


def _slabs(
    incidence: IncidenceMatrix, start: int = 0
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(b0, b1, slab)`` per :data:`TILE_ROWS`-row block from ``start``."""
    matrix, n = incidence.matrix, incidence.n_rows
    for b0 in range(start, n, TILE_ROWS):
        b1 = min(b0 + TILE_ROWS, n)
        yield b0, b1, matrix[b0:b1].astype(np.float64)


def _fill_strip(
    out: np.ndarray,
    tile_fn: TileFn,
    pivot_slab: np.ndarray,
    pivot_sizes: np.ndarray,
    blocks: Iterable[tuple[int, int, np.ndarray]],
    sizes: np.ndarray,
) -> np.ndarray:
    """Pivot rows against every ``(b0, b1, slab)`` column block, into ``out``."""
    for b0, b1, slab_b in blocks:
        out[:, b0:b1] = tile_fn(pivot_slab @ slab_b.T, pivot_sizes, sizes[b0:b1])
    return out


def _full_distances(incidence: IncidenceMatrix, metric: str) -> np.ndarray:
    """The (n, n) matrix: upper-triangle tiles, each mirrored below.

    A tile is written straight into ``out`` and mirrored from there, so
    no finished tile stays alive while the next one is computed.
    """
    tile_fn = _tile_fn(metric)
    n = incidence.n_rows
    sizes = incidence.set_sizes.astype(np.float64)
    out = np.empty((n, n), dtype=np.float64)
    for a0, a1, slab_a in _slabs(incidence):
        for b0, b1, slab_b in _slabs(incidence, a0):
            out[a0:a1, b0:b1] = tile_fn(slab_a @ slab_b.T, sizes[a0:a1], sizes[b0:b1])
            if b0 != a0:
                out[b0:b1, a0:a1] = out[a0:a1, b0:b1].T
    np.fill_diagonal(out, 0.0)
    return out


def jaccard_distances(incidence: IncidenceMatrix) -> np.ndarray:
    """The full Jaccard distance matrix, 1 − |A∩B| / |A∪B|.

    Two empty sets are at distance 0.0.  Peak memory beyond the (n, n)
    output is two (:data:`TILE_ROWS` × universe) slabs and one tile.
    """
    return _full_distances(incidence, "jaccard")


def overlap_distances(incidence: IncidenceMatrix) -> np.ndarray:
    """The overlap-coefficient distance matrix, 1 − |A∩B| / min(|A|,|B|).

    When the smaller set is empty the distance is 0.0 for two empty
    sets and 1.0 otherwise.  Same tiling as :func:`jaccard_distances`.
    """
    return _full_distances(incidence, "overlap")


def cross_distances(
    incidence: IncidenceMatrix,
    rows: Sequence[int],
    *,
    metric: str = "jaccard",
) -> np.ndarray:
    """Distances from the selected rows to **every** row: a (k, n) strip.

    This is the landmark-MDS input: k pivot rows against the whole
    corpus, computed per column block so the working set is the
    (k × universe) pivot slab plus one (block × universe) slab — never
    an (n, n) matrix.  Row ``i`` equals row ``rows[i]`` of the full
    matrix exactly.
    """
    tile_fn = _tile_fn(metric)
    rows = [int(r) for r in rows]
    n = incidence.n_rows
    if any(r < 0 or r >= n for r in rows):
        raise AnalysisError(f"row index out of range for {n} rows")
    sizes = incidence.set_sizes.astype(np.float64)
    out = _fill_strip(
        np.empty((len(rows), n), dtype=np.float64),
        tile_fn,
        incidence.matrix[rows].astype(np.float64),
        sizes[rows],
        _slabs(incidence),
        sizes,
    )
    for strip_row, index in enumerate(rows):
        out[strip_row, index] = 0.0  # the full matrix's zeroed diagonal
    return out


def maxmin_landmarks(
    incidence: IncidenceMatrix,
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
    :func:`cross_distances` on the same operands, but the column slabs
    are densified once and shared by all k strips — the whole corpus
    as float64 (n × universe), instead of re-densifying it per landmark.
    """
    n = incidence.n_rows
    if k < 2:
        raise AnalysisError(f"need at least two landmarks, got {k}")
    if k > n:
        raise AnalysisError(f"cannot pick {k} landmarks from {n} rows")
    if first < 0 or first >= n:
        raise AnalysisError(f"first landmark {first} out of range for {n} rows")
    tile_fn = _tile_fn(metric)
    sizes = incidence.set_sizes.astype(np.float64)
    blocks = list(_slabs(incidence))
    strip = np.empty((1, n), dtype=np.float64)

    def distances_from(row: int) -> np.ndarray:
        pivot = incidence.matrix[[row]].astype(np.float64)
        _fill_strip(strip, tile_fn, pivot, sizes[[row]], blocks, sizes)
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

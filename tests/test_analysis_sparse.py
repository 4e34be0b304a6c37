"""Property and equivalence tests for the sparse/blocked substrate.

The contract: every blocked product is **element-wise identical** (not
merely close) to the dense oracle from
:mod:`repro.analysis.incidence`, across arbitrary subset corpora —
empty sets, single snapshots, and degenerate all-empty universes
included.  That exactness is what lets ``ArchiveQuery.distance_matrix``
route through the blocked path without a tolerance footnote.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_incidence,
    build_sparse_incidence,
    jaccard_distances,
    overlap_distances,
)
from repro.analysis.sparse import (
    DEFAULT_BLOCK_ROWS,
    SparseIncidence,
    blocked_jaccard_distances,
    blocked_overlap_distances,
    cross_distances,
    maxmin_landmarks,
    sparse_from_sets,
)
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from repro.store.purposes import TrustPurpose
from tests.conftest import make_cert

POOL_SIZE = 8


@pytest.fixture(scope="module")
def cert_pool(rsa_key):
    return tuple(
        make_cert(rsa_key, f"Sparse Pool Root {i}", serial=300 + i)
        for i in range(POOL_SIZE)
    )


def _snapshots_from_subsets(cert_pool, subsets):
    return [
        RootStoreSnapshot.build(
            "prov",
            date(2020, 1, 1),
            str(row),
            [TrustEntry.make(cert_pool[i]) for i in sorted(subset)],
        )
        for row, subset in enumerate(subsets)
    ]


def _sets_from_subsets(subsets):
    """Fingerprint-set stand-ins built straight from index subsets."""
    return [frozenset(f"fp-{i:02d}" for i in subset) for subset in subsets]


def _labels(n):
    return [(f"p{i}", date(2020, 1, 1), str(i)) for i in range(n)]


#: Lists of 1..7 subsets of the pool, empty subsets included —
#: single-snapshot corpora are part of the contract.
_subset_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=POOL_SIZE),
    min_size=1,
    max_size=7,
)


class TestBlockedEqualsDense:
    @settings(max_examples=60, deadline=None)
    @given(_subset_lists, st.integers(min_value=1, max_value=9))
    def test_jaccard_elementwise_identical(self, subsets, block_rows):
        sets = _sets_from_subsets(subsets)
        sparse = sparse_from_sets(_labels(len(sets)), sets)
        dense = jaccard_distances(sparse.to_dense())
        blocked = blocked_jaccard_distances(sparse, block_rows=block_rows)
        assert np.array_equal(blocked, dense)  # exact, not allclose

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists, st.integers(min_value=1, max_value=9))
    def test_overlap_elementwise_identical(self, subsets, block_rows):
        sets = _sets_from_subsets(subsets)
        sparse = sparse_from_sets(_labels(len(sets)), sets)
        dense = overlap_distances(sparse.to_dense())
        blocked = blocked_overlap_distances(sparse, block_rows=block_rows)
        assert np.array_equal(blocked, dense)

    @settings(max_examples=40, deadline=None)
    @given(_subset_lists)
    def test_cross_rows_match_full_matrix(self, subsets):
        sets = _sets_from_subsets(subsets)
        sparse = sparse_from_sets(_labels(len(sets)), sets)
        rows = list(range(0, sparse.n_rows, 2))
        for metric, blocked_fn in (
            ("jaccard", blocked_jaccard_distances),
            ("overlap", blocked_overlap_distances),
        ):
            full = blocked_fn(sparse, block_rows=3)
            strip = cross_distances(sparse, rows, metric=metric, block_rows=3)
            assert np.array_equal(strip, full[rows])

    def test_snapshot_builder_matches_dense_builder(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1}), frozenset(), frozenset({1, 2, 5})]
        )
        dense = build_incidence(snapshots)
        sparse = build_sparse_incidence(snapshots)
        assert sparse.labels == dense.labels
        assert sparse.fingerprints == dense.fingerprints
        assert np.array_equal(sparse.to_dense().matrix, dense.matrix)
        assert sparse.set_sizes.tolist() == dense.set_sizes.tolist()

    def test_purpose_filter_forwarded(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset({0}), frozenset({1})])
        sparse = build_sparse_incidence(snapshots, purpose=TrustPurpose.SERVER_AUTH)
        for row, snapshot in enumerate(snapshots):
            assert sparse.row_set(row) == snapshot.fingerprints(TrustPurpose.SERVER_AUTH)


class TestDegenerateCorpora:
    def test_single_snapshot(self):
        sparse = sparse_from_sets(_labels(1), [frozenset({"fp-01", "fp-02"})])
        for fn in (blocked_jaccard_distances, blocked_overlap_distances):
            matrix = fn(sparse)
            assert matrix.shape == (1, 1)
            assert matrix[0, 0] == 0.0

    def test_single_empty_snapshot(self):
        sparse = sparse_from_sets(_labels(1), [frozenset()])
        assert sparse.n_cols == 0
        assert blocked_jaccard_distances(sparse).tolist() == [[0.0]]

    def test_all_empty_corpus_conventions(self):
        """All-empty-purpose snapshots: everything at distance 0."""
        sparse = sparse_from_sets(_labels(4), [frozenset()] * 4)
        assert blocked_jaccard_distances(sparse).max() == 0.0
        assert blocked_overlap_distances(sparse).max() == 0.0

    def test_empty_vs_nonempty_conventions(self):
        sparse = sparse_from_sets(
            _labels(3), [frozenset(), frozenset({"a", "b"}), frozenset()]
        )
        jaccard = blocked_jaccard_distances(sparse)
        overlap = blocked_overlap_distances(sparse)
        assert jaccard[0, 1] == 1.0  # empty vs non-empty
        assert jaccard[0, 2] == 0.0  # empty vs empty
        assert overlap[0, 1] == 1.0  # the smaller set is empty
        assert overlap[0, 2] == 0.0  # both empty
        assert np.array_equal(jaccard, jaccard.T)
        assert np.array_equal(overlap, overlap.T)

    def test_no_snapshots_rejected(self):
        with pytest.raises(AnalysisError):
            sparse_from_sets([], [])
        with pytest.raises(AnalysisError):
            build_sparse_incidence([])


class TestSparseRepresentation:
    def test_csr_invariants_and_nbytes(self):
        sets = [frozenset({"c", "a"}), frozenset(), frozenset({"b", "c", "d"})]
        sparse = sparse_from_sets(_labels(3), sets)
        assert sparse.indptr.dtype == np.int64
        assert sparse.indices.dtype == np.int32
        assert sparse.indptr.tolist() == [0, 2, 2, 5]
        assert sparse.nnz == 5
        assert sparse.nbytes == sparse.indptr.nbytes + sparse.indices.nbytes
        # Universe is the sorted union; in-row columns strictly increase.
        assert sparse.fingerprints == ("a", "b", "c", "d")
        for row in range(3):
            columns = sparse.indices[sparse.indptr[row] : sparse.indptr[row + 1]]
            assert (np.diff(columns) > 0).all()

    def test_row_set_roundtrip(self):
        sets = [frozenset({"x", "y"}), frozenset(), frozenset({"z"})]
        sparse = sparse_from_sets(_labels(3), sets)
        for row, expected in enumerate(sets):
            assert sparse.row_set(row) == expected

    def test_slab_is_float64_incidence(self):
        sets = [frozenset({"a"}), frozenset({"a", "b"}), frozenset()]
        sparse = sparse_from_sets(_labels(3), sets)
        slab = sparse.slab(0, 2)
        assert slab.dtype == np.float64
        assert slab.tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert sparse.rows_slab([2, 0]).tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_mismatched_labels_rejected(self):
        with pytest.raises(AnalysisError):
            sparse_from_sets(_labels(2), [frozenset()])

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(AnalysisError):
            SparseIncidence(
                labels=tuple(_labels(2)),
                fingerprints=("a",),
                indptr=np.array([0, 1], dtype=np.int64),  # wrong length
                indices=np.array([0], dtype=np.int32),
            )
        with pytest.raises(AnalysisError):
            SparseIncidence(
                labels=tuple(_labels(1)),
                fingerprints=("a",),
                indptr=np.array([0, 2], dtype=np.int64),  # claims 2 entries
                indices=np.array([0], dtype=np.int32),
            )


class TestLandmarkSelection:
    def test_maxmin_is_deterministic_and_distinct(self):
        sets = [
            frozenset({f"fp-{i}", f"fp-{(i * 3) % 11}", "shared"}) for i in range(12)
        ]
        sparse = sparse_from_sets(_labels(12), sets)
        first = maxmin_landmarks(sparse, 5)
        second = maxmin_landmarks(sparse, 5)
        assert first == second
        assert len(set(first)) == 5
        assert all(0 <= i < 12 for i in first)
        assert first == tuple(sorted(first))

    def test_maxmin_spreads_over_clusters(self):
        """Two disjoint families: landmarks must hit both."""
        family_a = [frozenset({"a1", "a2", f"a{i}"}) for i in range(3, 9)]
        family_b = [frozenset({"b1", "b2", f"b{i}"}) for i in range(3, 9)]
        sparse = sparse_from_sets(_labels(12), family_a + family_b)
        picked = maxmin_landmarks(sparse, 2)
        sides = {index < 6 for index in picked}
        assert sides == {True, False}

    def test_maxmin_duplicate_rows_still_distinct_indices(self):
        sparse = sparse_from_sets(_labels(4), [frozenset({"a"})] * 4)
        picked = maxmin_landmarks(sparse, 3)
        assert len(set(picked)) == 3

    def test_maxmin_validation(self):
        sparse = sparse_from_sets(_labels(3), [frozenset({"a"})] * 3)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(sparse, 1)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(sparse, 4)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(sparse, 2, first=5)

    def test_cross_distances_validation(self):
        sparse = sparse_from_sets(_labels(2), [frozenset({"a"}), frozenset({"b"})])
        with pytest.raises(AnalysisError):
            cross_distances(sparse, [0], metric="euclid")
        with pytest.raises(AnalysisError):
            cross_distances(sparse, [7])


def _strip_by_strip_landmarks(sparse, k, *, metric="jaccard", first=0):
    """Reference maxmin: one fresh :func:`cross_distances` strip per landmark."""
    chosen = [first]
    min_distance = cross_distances(sparse, [first], metric=metric)[0].copy()
    min_distance[first] = -1.0
    for _ in range(k - 1):
        candidate = int(np.argmax(min_distance))
        chosen.append(candidate)
        strip = cross_distances(sparse, [candidate], metric=metric)[0]
        np.minimum(min_distance, strip, out=min_distance)
        min_distance[candidate] = -1.0
    return tuple(sorted(chosen))


def _random_corpus(n, seed, universe=40):
    """Random sets with empty rows and exact duplicates mixed in."""
    rng = np.random.default_rng(seed)
    sets = []
    for row in range(n):
        draw = rng.random()
        if draw < 0.05:
            sets.append(frozenset())
        elif draw < 0.2 and sets:
            sets.append(sets[int(rng.integers(len(sets)))])
        else:
            size = int(rng.integers(1, 12))
            sets.append(frozenset(f"fp-{c:02d}" for c in rng.choice(universe, size, replace=False)))
    return sparse_from_sets(_labels(n), sets)


class TestLandmarkSlabReuse:
    """``maxmin_landmarks`` densifies each column block once, same answers."""

    SIZES = (
        DEFAULT_BLOCK_ROWS - 7,  # below one whole block
        DEFAULT_BLOCK_ROWS,  # exactly one
        2 * DEFAULT_BLOCK_ROWS,  # exactly two
        2 * DEFAULT_BLOCK_ROWS + 13,  # a ragged final block
    )

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_matches_strip_by_strip_reference(self, n, seed):
        sparse = _random_corpus(n, seed)
        for metric in ("jaccard", "overlap"):
            for first in (0, n - 1):
                assert maxmin_landmarks(sparse, 16, metric=metric, first=first) == (
                    _strip_by_strip_landmarks(sparse, 16, metric=metric, first=first)
                ), (metric, first)

    def test_small_corpora_with_empty_and_duplicate_rows(self):
        sets = [frozenset(), frozenset({"a"}), frozenset({"a"}), frozenset(), frozenset({"b", "c"})]
        sparse = sparse_from_sets(_labels(len(sets)), sets)
        for k in range(2, len(sets) + 1):
            assert maxmin_landmarks(sparse, k) == _strip_by_strip_landmarks(sparse, k)
        empty = sparse_from_sets(_labels(3), [frozenset()] * 3)
        assert maxmin_landmarks(empty, 3) == _strip_by_strip_landmarks(empty, 3)

    @pytest.mark.parametrize("n", SIZES)
    def test_slab_densified_once_per_column_block(self, n, monkeypatch):
        sparse = _random_corpus(n, seed=2)
        calls = []
        original = SparseIncidence.slab

        def counting_slab(self, start, stop):
            calls.append(start)
            return original(self, start, stop)

        monkeypatch.setattr(SparseIncidence, "slab", counting_slab)
        maxmin_landmarks(sparse, 24)
        assert sorted(calls) == list(range(0, n, DEFAULT_BLOCK_ROWS))

"""Property and equivalence tests for the tiled distance kernel.

The contract: every kernel output — full matrices, (k, n) strips and
maxmin landmarks — is **element-wise identical** (not merely close) to
the per-pair oracle (:mod:`tests.oracle`), across arbitrary subset
corpora — empty sets, single snapshots, and degenerate all-empty
universes included — and for every tile height.  The tile height is a
module constant, so these tests vary it by patching
``repro.analysis.incidence.TILE_ROWS``.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_incidence,
    incidence_from_sets,
    jaccard_distances,
    overlap_distances,
)
from repro.analysis import incidence as kernel
from repro.analysis.incidence import IncidenceMatrix
from repro.analysis.mds import landmark_mds
from repro.analysis.sparse import cross_distances, maxmin_landmarks
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from repro.store.purposes import TrustPurpose
from tests.conftest import make_cert
from tests.oracle import pairwise_distances

POOL_SIZE = 8

FULL = {"jaccard": jaccard_distances, "overlap": overlap_distances}


@pytest.fixture(scope="module")
def cert_pool(rsa_key):
    return tuple(
        make_cert(rsa_key, f"Sparse Pool Root {i}", serial=300 + i)
        for i in range(POOL_SIZE)
    )


@contextmanager
def tile_rows(rows: int):
    """Run the kernel with a different tile height."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "TILE_ROWS", rows)
        yield


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


def _incidence(sets):
    return incidence_from_sets(_labels(len(sets)), sets)


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
        with tile_rows(block_rows):
            tiled = jaccard_distances(_incidence(sets))
        assert np.array_equal(tiled, pairwise_distances(sets, "jaccard"))  # exact

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists, st.integers(min_value=1, max_value=9))
    def test_overlap_elementwise_identical(self, subsets, block_rows):
        sets = _sets_from_subsets(subsets)
        with tile_rows(block_rows):
            tiled = overlap_distances(_incidence(sets))
        assert np.array_equal(tiled, pairwise_distances(sets, "overlap"))

    @settings(max_examples=40, deadline=None)
    @given(_subset_lists)
    def test_cross_rows_match_full_matrix(self, subsets):
        sets = _sets_from_subsets(subsets)
        incidence = _incidence(sets)
        rows = list(range(0, incidence.n_rows, 2))
        with tile_rows(3):
            for metric, full_fn in FULL.items():
                full = full_fn(incidence)
                strip = cross_distances(incidence, rows, metric=metric)
                assert np.array_equal(strip, full[rows])
                assert np.array_equal(strip, pairwise_distances(sets, metric)[rows])

    def test_snapshot_builder_matches_dense_builder(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1}), frozenset(), frozenset({1, 2, 5})]
        )
        built = build_incidence(snapshots)
        from_sets = incidence_from_sets(
            built.labels, [s.fingerprints(TrustPurpose.SERVER_AUTH) for s in snapshots]
        )
        assert from_sets.labels == built.labels
        assert from_sets.fingerprints == built.fingerprints
        assert np.array_equal(from_sets.matrix, built.matrix)
        assert from_sets.set_sizes.tolist() == built.set_sizes.tolist() == [2, 0, 3]

    def test_purpose_filter_forwarded(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset({0}), frozenset({1})])
        incidence = build_incidence(snapshots, purpose=TrustPurpose.SERVER_AUTH)
        for row, snapshot in enumerate(snapshots):
            assert incidence.row_set(row) == snapshot.fingerprints(TrustPurpose.SERVER_AUTH)


class TestTileHeights:
    """n below, at and above tile multiples, ragged final tile included."""

    @pytest.mark.parametrize("n", (3, 4, 8, 11))
    def test_full_and_strips_match_oracle(self, n):
        sets = [
            frozenset(f"fp-{c}" for c in range(row % 5, row % 5 + row % 4))
            for row in range(n)
        ]
        incidence = _incidence(sets)
        rows = [0, n // 2, n - 1]
        with tile_rows(4):
            for metric, full_fn in FULL.items():
                oracle = pairwise_distances(sets, metric)
                assert np.array_equal(full_fn(incidence), oracle), metric
                strip = cross_distances(incidence, rows, metric=metric)
                assert np.array_equal(strip, oracle[rows]), metric


class TestDegenerateCorpora:
    def test_single_snapshot(self):
        incidence = _incidence([frozenset({"fp-01", "fp-02"})])
        for fn in FULL.values():
            matrix = fn(incidence)
            assert matrix.shape == (1, 1)
            assert matrix[0, 0] == 0.0

    def test_single_empty_snapshot(self):
        incidence = _incidence([frozenset()])
        assert incidence.fingerprints == ()
        assert jaccard_distances(incidence).tolist() == [[0.0]]

    def test_all_empty_corpus_conventions(self):
        """All-empty-purpose snapshots: everything at distance 0."""
        incidence = _incidence([frozenset()] * 4)
        assert jaccard_distances(incidence).max() == 0.0
        assert overlap_distances(incidence).max() == 0.0

    def test_empty_vs_nonempty_conventions(self):
        incidence = _incidence([frozenset(), frozenset({"a", "b"}), frozenset()])
        jaccard = jaccard_distances(incidence)
        overlap = overlap_distances(incidence)
        assert jaccard[0, 1] == 1.0  # empty vs non-empty
        assert jaccard[0, 2] == 0.0  # empty vs empty
        assert overlap[0, 1] == 1.0  # the smaller set is empty
        assert overlap[0, 2] == 0.0  # both empty
        assert np.array_equal(jaccard, jaccard.T)
        assert np.array_equal(overlap, overlap.T)

    def test_no_snapshots_rejected(self):
        with pytest.raises(AnalysisError):
            incidence_from_sets([], [])
        with pytest.raises(AnalysisError):
            build_incidence([])


class TestSparseRepresentation:
    """Construction and slabs of the one (bool) incidence type."""

    def test_row_set_roundtrip(self):
        sets = [frozenset({"x", "y"}), frozenset(), frozenset({"z"})]
        incidence = _incidence(sets)
        assert incidence.n_rows == 3
        assert incidence.fingerprints == ("x", "y", "z")  # the sorted union
        for row, expected in enumerate(sets):
            assert incidence.row_set(row) == expected

    def test_slab_is_float64_incidence(self):
        incidence = _incidence([frozenset({"a"}), frozenset({"a", "b"}), frozenset()])
        with tile_rows(2):
            slabs = list(kernel._slabs(incidence))
        assert [(b0, b1) for b0, b1, _ in slabs] == [(0, 2), (2, 3)]
        assert all(slab.dtype == np.float64 for _, _, slab in slabs)
        assert slabs[0][2].tolist() == [[1.0, 0.0], [1.0, 1.0]]
        assert slabs[1][2].tolist() == [[0.0, 0.0]]

    def test_mismatched_labels_rejected(self):
        with pytest.raises(AnalysisError):
            incidence_from_sets(_labels(2), [frozenset()])


class TestLandmarkSelection:
    def test_maxmin_is_deterministic_and_distinct(self):
        sets = [
            frozenset({f"fp-{i}", f"fp-{(i * 3) % 11}", "shared"}) for i in range(12)
        ]
        incidence = _incidence(sets)
        first = maxmin_landmarks(incidence, 5)
        second = maxmin_landmarks(incidence, 5)
        assert first == second
        assert len(set(first)) == 5
        assert all(0 <= i < 12 for i in first)
        assert first == tuple(sorted(first))

    def test_maxmin_spreads_over_clusters(self):
        """Two disjoint families: landmarks must hit both."""
        family_a = [frozenset({"a1", "a2", f"a{i}"}) for i in range(3, 9)]
        family_b = [frozenset({"b1", "b2", f"b{i}"}) for i in range(3, 9)]
        picked = maxmin_landmarks(_incidence(family_a + family_b), 2)
        sides = {index < 6 for index in picked}
        assert sides == {True, False}

    def test_maxmin_duplicate_rows_still_distinct_indices(self):
        picked = maxmin_landmarks(_incidence([frozenset({"a"})] * 4), 3)
        assert len(set(picked)) == 3

    def test_maxmin_validation(self):
        incidence = _incidence([frozenset({"a"})] * 3)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 1)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 4)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 2, first=5)
        with pytest.raises(AnalysisError):
            maxmin_landmarks(incidence, 2, metric="euclid")

    def test_cross_distances_validation(self):
        incidence = _incidence([frozenset({"a"}), frozenset({"b"})])
        with pytest.raises(AnalysisError):
            cross_distances(incidence, [0], metric="euclid")
        with pytest.raises(AnalysisError):
            cross_distances(incidence, [7])


def _strip_by_strip_landmarks(incidence, k, *, metric="jaccard", first=0):
    """Reference maxmin: one fresh :func:`cross_distances` strip per landmark."""
    chosen = [first]
    min_distance = cross_distances(incidence, [first], metric=metric)[0].copy()
    min_distance[first] = -1.0
    for _ in range(k - 1):
        candidate = int(np.argmax(min_distance))
        chosen.append(candidate)
        strip = cross_distances(incidence, [candidate], metric=metric)[0]
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
    return _incidence(sets)


class TestLandmarkSlabReuse:
    """``maxmin_landmarks`` densifies each column block once, same answers."""

    SIZES = (
        kernel.TILE_ROWS - 7,  # below one whole tile
        kernel.TILE_ROWS,  # exactly one
        2 * kernel.TILE_ROWS,  # exactly two
        2 * kernel.TILE_ROWS + 13,  # a ragged final tile
    )

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_matches_strip_by_strip_reference(self, n, seed):
        incidence = _random_corpus(n, seed)
        for metric in ("jaccard", "overlap"):
            for first in (0, n - 1):
                assert maxmin_landmarks(incidence, 16, metric=metric, first=first) == (
                    _strip_by_strip_landmarks(incidence, 16, metric=metric, first=first)
                ), (metric, first)

    def test_small_corpora_with_empty_and_duplicate_rows(self):
        sets = [frozenset(), frozenset({"a"}), frozenset({"a"}), frozenset(), frozenset({"b", "c"})]
        incidence = _incidence(sets)
        for k in range(2, len(sets) + 1):
            assert maxmin_landmarks(incidence, k) == _strip_by_strip_landmarks(incidence, k)
        empty = _incidence([frozenset()] * 3)
        assert maxmin_landmarks(empty, 3) == _strip_by_strip_landmarks(empty, 3)

    @pytest.mark.parametrize("n", SIZES)
    def test_slab_densified_once_per_column_block(self, n, monkeypatch):
        incidence = _random_corpus(n, seed=2)
        calls = []
        original = kernel._slabs

        def counting_slabs(incidence, start=0):
            for block in original(incidence, start):
                calls.append(block[0])
                yield block

        monkeypatch.setattr(kernel, "_slabs", counting_slabs)
        maxmin_landmarks(incidence, 24)
        assert sorted(calls) == list(range(0, n, kernel.TILE_ROWS))


def _peak_bytes(fn):
    """tracemalloc peak while running ``fn`` (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGates:
    """The kernel never needs an (n, n) buffer it does not return."""

    ROWS = 3000
    UNIVERSE = 280  # the real fingerprint universe at population scale

    @pytest.fixture(scope="class")
    def large(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((self.ROWS, self.UNIVERSE)) < 0.25
        return IncidenceMatrix(
            labels=tuple(_labels(self.ROWS)),
            fingerprints=tuple(f"fp-{c:03d}" for c in range(self.UNIVERSE)),
            matrix=matrix,
        )

    def test_landmark_ordination_never_allocates_n_by_n(self, large):
        def ordinate():
            landmarks = maxmin_landmarks(large, 96)
            landmark_mds(cross_distances(large, landmarks), landmarks)

        square = self.ROWS * self.ROWS * 8
        assert _peak_bytes(ordinate) < square / 4

    @pytest.mark.parametrize("metric", sorted(FULL))
    def test_full_matrix_overhead_below_an_eighth_of_output(self, large, metric):
        output = self.ROWS * self.ROWS * 8
        peak = _peak_bytes(lambda: FULL[metric](large))
        assert peak - output < output / 8

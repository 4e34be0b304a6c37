"""Equivalence and property tests for the incidence-matrix substrate.

The tiled kernel's Jaccard/overlap matrices must match the per-pair
oracle (:mod:`tests.oracle`) element-wise — these tests are the
contract that lets ``distance_matrix`` route through
:mod:`repro.analysis.incidence` with no per-pair path in production.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    build_incidence,
    collect_snapshots,
    distance_matrix,
    jaccard_distances,
    overlap_distances,
)
from repro.analysis.incidence import IncidenceMatrix
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from repro.store.purposes import TrustLevel, TrustPurpose
from tests.conftest import make_cert
from tests.oracle import pairwise_distances

POOL_SIZE = 8


@pytest.fixture(scope="module")
def cert_pool(rsa_key):
    """A pool of distinct small certificates for randomized snapshots."""
    return tuple(
        make_cert(rsa_key, f"Pool Root {i}", serial=100 + i) for i in range(POOL_SIZE)
    )


def _snapshots_from_subsets(cert_pool, subsets):
    """One snapshot per index subset, drawing entries from the pool."""
    return [
        RootStoreSnapshot.build(
            "prov",
            date(2020, 1, 1),
            str(row),
            [TrustEntry.make(cert_pool[i]) for i in sorted(subset)],
        )
        for row, subset in enumerate(subsets)
    ]


#: Lists of 2..6 subsets of the pool, empty subsets included.
_subset_lists = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=POOL_SIZE),
    min_size=2,
    max_size=6,
)


def _oracle(snapshots, metric):
    sets = [s.fingerprints(TrustPurpose.SERVER_AUTH) for s in snapshots]
    return pairwise_distances(sets, metric)


class TestVectorizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_subset_lists)
    def test_jaccard_matches_naive(self, cert_pool, subsets):
        snapshots = _snapshots_from_subsets(cert_pool, subsets)
        naive = _oracle(snapshots, "jaccard")
        fast = distance_matrix(snapshots, metric="jaccard")
        assert np.abs(naive - fast.matrix).max() <= 1e-12
        assert fast.labels == tuple((s.provider, s.taken_at, s.version) for s in snapshots)

    @settings(max_examples=60, deadline=None)
    @given(_subset_lists)
    def test_overlap_matches_naive(self, cert_pool, subsets):
        snapshots = _snapshots_from_subsets(cert_pool, subsets)
        naive = _oracle(snapshots, "overlap")
        fast = distance_matrix(snapshots, metric="overlap")
        assert np.abs(naive - fast.matrix).max() <= 1e-12

    def test_all_empty_snapshots(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset(), frozenset()])
        for metric in ("jaccard", "overlap"):
            labelled = distance_matrix(snapshots, metric=metric)
            assert labelled.matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_empty_vs_nonempty(self, cert_pool):
        snapshots = _snapshots_from_subsets(cert_pool, [frozenset(), frozenset({0, 1})])
        jaccard = distance_matrix(snapshots, metric="jaccard")
        overlap = distance_matrix(snapshots, metric="overlap")
        assert jaccard.matrix[0, 1] == 1.0
        assert overlap.matrix[0, 1] == 1.0  # the smaller set is empty

    def test_disjoint_sets(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1, 2}), frozenset({3, 4})]
        )
        labelled = distance_matrix(snapshots, metric="jaccard")
        assert labelled.matrix[0, 1] == 1.0

    def test_full_seeded_dataset_identical(self, dataset):
        """The acceptance bar: element-wise identity on the full corpus."""
        snapshots = collect_snapshots(dataset)
        naive = _oracle(snapshots, "jaccard")
        fast = distance_matrix(snapshots, metric="jaccard")
        assert np.abs(naive - fast.matrix).max() <= 1e-12
        assert fast.matrix.dtype == np.float64
        assert np.array_equal(fast.matrix, fast.matrix.T)


class TestIncidenceMatrix:
    def test_shape_and_universe(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 1}), frozenset({1, 2})]
        )
        incidence = build_incidence(snapshots)
        assert incidence.matrix.shape == (2, 3)
        assert incidence.matrix.dtype == bool
        assert list(incidence.fingerprints) == sorted(incidence.fingerprints)
        assert incidence.set_sizes.tolist() == [2, 2]

    def test_row_set_roundtrip(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0, 3}), frozenset(), frozenset({1})]
        )
        incidence = build_incidence(snapshots)
        for row, snapshot in enumerate(snapshots):
            assert incidence.row_set(row) == snapshot.fingerprints(
                TrustPurpose.SERVER_AUTH
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            IncidenceMatrix(
                labels=(("p", date(2020, 1, 1), "1"),),
                fingerprints=("aa", "bb"),
                matrix=np.zeros((2, 2), dtype=bool),
            )

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            build_incidence([])

    def test_distance_functions_reject_nothing_symmetric(self, cert_pool):
        snapshots = _snapshots_from_subsets(
            cert_pool, [frozenset({0}), frozenset({0, 1}), frozenset({2})]
        )
        incidence = build_incidence(snapshots)
        for fn in (jaccard_distances, overlap_distances):
            matrix = fn(incidence)
            assert np.array_equal(matrix, matrix.T)
            assert np.allclose(np.diag(matrix), 0.0)


class TestPurposeValidation:
    def test_unsupported_purpose_named(self, cert_pool):
        """A non-empty snapshot silent on the purpose raises, naming it."""
        silent = RootStoreSnapshot.build(
            "quiet-provider",
            date(2020, 1, 1),
            "v9",
            [
                TrustEntry(certificate=cert_pool[0], trust=())  # no statements at all
            ],
        )
        speaking = RootStoreSnapshot.build(
            "loud", date(2020, 1, 1), "1", [TrustEntry.make(cert_pool[1])]
        )
        with pytest.raises(AnalysisError, match="quiet-provider"):
            distance_matrix([speaking, silent])

    def test_distrust_statement_counts_as_support(self, cert_pool):
        """DISTRUSTED is still a statement — the store speaks the purpose."""
        distrusting = RootStoreSnapshot.build(
            "d",
            date(2020, 1, 1),
            "1",
            [
                TrustEntry.make(
                    cert_pool[0], {TrustPurpose.SERVER_AUTH: TrustLevel.DISTRUSTED}
                )
            ],
        )
        other = RootStoreSnapshot.build(
            "e", date(2020, 1, 1), "1", [TrustEntry.make(cert_pool[1])]
        )
        labelled = distance_matrix([distrusting, other])
        assert labelled.matrix[0, 1] == 1.0  # empty trusted set vs one root

    def test_purpose_none_skips_validation(self, cert_pool):
        silent = RootStoreSnapshot.build(
            "quiet", date(2020, 1, 1), "1", [TrustEntry(certificate=cert_pool[0], trust=())]
        )
        labelled = distance_matrix([silent, silent], purpose=None)
        assert labelled.matrix[0, 1] == 0.0

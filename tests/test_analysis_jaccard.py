"""Unit and property tests for distance computation."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import collect_snapshots, distance_matrix
from repro.errors import AnalysisError
from repro.store import RootStoreSnapshot, TrustEntry
from tests.oracle import jaccard_distance, overlap_distance

_sets = st.frozensets(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=12)


class TestJaccard:
    def test_identical(self):
        assert jaccard_distance(frozenset("ab"), frozenset("ab")) == 0.0

    def test_disjoint(self):
        assert jaccard_distance(frozenset("ab"), frozenset("cd")) == 1.0

    def test_partial(self):
        assert abs(jaccard_distance(frozenset("ab"), frozenset("bc")) - 2 / 3) < 1e-12

    def test_both_empty(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0.0

    @given(_sets, _sets)
    def test_symmetry(self, a, b):
        assert jaccard_distance(a, b) == jaccard_distance(b, a)

    @given(_sets, _sets)
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_distance(a, b) <= 1.0

    @given(_sets)
    def test_identity_of_indiscernibles(self, a):
        assert jaccard_distance(a, a) == 0.0

    @given(_sets, _sets, _sets)
    def test_triangle_inequality(self, a, b, c):
        """Jaccard distance is a proper metric."""
        ab = jaccard_distance(a, b)
        bc = jaccard_distance(b, c)
        ac = jaccard_distance(a, c)
        assert ac <= ab + bc + 1e-12


class TestOverlap:
    def test_subset_is_zero(self):
        assert overlap_distance(frozenset("ab"), frozenset("abcd")) == 0.0

    def test_disjoint(self):
        assert overlap_distance(frozenset("ab"), frozenset("cd")) == 1.0

    def test_one_empty(self):
        assert overlap_distance(frozenset(), frozenset("a")) == 1.0

    def test_both_empty(self):
        assert overlap_distance(frozenset(), frozenset()) == 0.0

    @given(_sets, _sets)
    def test_at_most_jaccard(self, a, b):
        """Overlap distance never exceeds Jaccard distance."""
        assert overlap_distance(a, b) <= jaccard_distance(a, b) + 1e-12


class TestDistanceMatrix:
    def _snapshots(self, sample_certs):
        entries = [TrustEntry.make(c) for c in sample_certs]
        return [
            RootStoreSnapshot.build("nss", date(2020, 1, 1), "1", entries),
            RootStoreSnapshot.build("nss", date(2020, 2, 1), "2", entries[:2]),
            RootStoreSnapshot.build("apple", date(2020, 1, 1), "1", entries[2:]),
        ]

    def test_shape_and_symmetry(self, sample_certs):
        labelled = distance_matrix(self._snapshots(sample_certs))
        assert labelled.matrix.shape == (3, 3)
        assert np.allclose(labelled.matrix, labelled.matrix.T)
        assert np.allclose(np.diag(labelled.matrix), 0.0)

    def test_labels(self, sample_certs):
        labelled = distance_matrix(self._snapshots(sample_certs))
        assert labelled.providers == ("nss", "nss", "apple")

    def test_values(self, sample_certs):
        labelled = distance_matrix(self._snapshots(sample_certs))
        # snapshot 0 = {a,b,c}, snapshot 1 = {a,b}: J = 1 - 2/3.
        assert abs(labelled.matrix[0, 1] - 1 / 3) < 1e-12
        # snapshot 0 = {a,b,c}, snapshot 2 = {c}: J = 1 - 1/3.
        assert abs(labelled.matrix[0, 2] - 2 / 3) < 1e-12
        # snapshot 1 = {a,b}, snapshot 2 = {c}: disjoint.
        assert labelled.matrix[1, 2] == 1.0

    def test_metric_selection(self, sample_certs):
        snapshots = self._snapshots(sample_certs)
        jaccard = distance_matrix(snapshots, metric="jaccard")
        overlap = distance_matrix(snapshots, metric="overlap")
        assert (overlap.matrix <= jaccard.matrix + 1e-12).all()

    def test_unknown_metric(self, sample_certs):
        with pytest.raises(AnalysisError):
            distance_matrix(self._snapshots(sample_certs), metric="cosine")

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            distance_matrix([])


class TestCollect:
    def test_since_filter(self, dataset):
        recent = collect_snapshots(dataset, since=date(2019, 1, 1))
        assert all(s.taken_at >= date(2019, 1, 1) for s in recent)

    def test_provider_filter(self, dataset):
        only = collect_snapshots(dataset, providers=("java",))
        assert {s.provider for s in only} == {"java"}

    def test_ordering(self, dataset):
        snapshots = collect_snapshots(dataset, providers=("nss",))
        dates = [s.taken_at for s in snapshots]
        assert dates == sorted(dates)

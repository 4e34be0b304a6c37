"""The per-pair distance oracle for the tiled kernel's equivalence tests.

Plain set arithmetic, one pair at a time — O(n² · |store|) and far too
slow for production, which is exactly why it is the reference: nothing
here shares code or op order with :mod:`repro.analysis.incidence`.
"""

from __future__ import annotations

import numpy as np


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

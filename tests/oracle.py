"""Slow, obviously-right references for the equivalence tests.

- The per-pair distance oracle for the tiled kernel: plain set
  arithmetic, one pair at a time — O(n² · |store|) and far too slow for
  production, which is exactly why it is the reference: nothing here
  shares code or op order with :mod:`repro.analysis.incidence`.
- The manifest oracle for the fixed-shape manifest writer: the payload
  built row by row from stored rows, encoded by the generic
  ``json.dumps(sort_keys=True, indent=1)``.
"""

from __future__ import annotations

import json

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

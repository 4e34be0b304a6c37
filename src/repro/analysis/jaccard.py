"""Pairwise Jaccard distances over root store snapshots (Section 4).

The ordination pipeline flattens every provider's snapshots into one
labelled list and computes the pairwise distance matrix over their
TLS-trusted fingerprint sets.  An alternative overlap-coefficient
distance is provided for the ablation benchmark.

The matrix is computed by the tiled kernel of
:mod:`repro.analysis.incidence`: one boolean snapshots × fingerprints
matrix, row-tile matrix products, inclusion–exclusion unions.  Every
count involved is a small exact integer, so the result is element-wise
identical to the per-pair set formulas (the equivalence tests keep
that per-pair loop as their oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable

import numpy as np

from repro.analysis.incidence import (
    build_incidence,
    jaccard_distances,
    overlap_distances,
)
from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer
from repro.store.history import Dataset
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot


@dataclass(frozen=True)
class LabelledMatrix:
    """A square distance matrix plus the snapshot labels of its axes."""

    labels: tuple[tuple[str, date, str], ...]  # (provider, taken_at, version)
    matrix: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        if self.matrix.shape != (n, n):
            raise AnalysisError(
                f"matrix shape {self.matrix.shape} does not match {n} labels"
            )

    @property
    def providers(self) -> tuple[str, ...]:
        return tuple(label[0] for label in self.labels)


def collect_snapshots(
    dataset: Dataset,
    *,
    since: date | None = None,
    providers: tuple[str, ...] | None = None,
) -> list[RootStoreSnapshot]:
    """All snapshots (optionally filtered), in (provider, date) order.

    The paper's Figure 1 restricts to 2011-2021; pass ``since`` for that.
    """
    result = []
    for provider in dataset.providers:
        if providers is not None and provider not in providers:
            continue
        for snapshot in dataset[provider]:
            if since is not None and snapshot.taken_at < since:
                continue
            result.append(snapshot)
    return result


#: metric name -> full-matrix kernel.
_KERNELS = {"jaccard": jaccard_distances, "overlap": overlap_distances}


def require_purpose_support(stores: Iterable, purpose: TrustPurpose | None) -> None:
    """Reject stores that cannot express the requested purpose.

    A non-empty store whose entries carry no statement at all for
    ``purpose`` would contribute an empty fingerprint set and sit at
    distance 1.0 from everything — a silent artifact of the purpose
    vocabulary, not a measurement.  Name the offender instead.

    ``stores`` are snapshots or archive manifests (anything with
    ``fingerprints``, ``entries`` and the provider/version/date label).
    Only a store whose purpose set is empty while it holds entries is
    inspected, so a well-supported purpose costs one memoized set
    lookup per store.
    """
    if purpose is None:
        return
    for store in stores:
        if store.fingerprints(purpose) or not store.entries:
            continue
        if not any(e.level_for(purpose) is not None for e in store.entries):
            raise AnalysisError(
                f"snapshot {store.provider}@{store.version} "
                f"({store.taken_at:%Y-%m-%d}) has no trust statement for "
                f"{purpose}; its empty fingerprint set would poison the "
                f"distance matrix"
            )


def distance_matrix(
    snapshots: list[RootStoreSnapshot],
    *,
    purpose: TrustPurpose | None = TrustPurpose.SERVER_AUTH,
    metric: str = "jaccard",
) -> LabelledMatrix:
    """Pairwise distances between snapshot fingerprint sets.

    ``metric`` is ``"jaccard"`` or ``"overlap"``.
    """
    if not snapshots:
        raise AnalysisError("no snapshots to compare")
    if metric not in _KERNELS:
        raise AnalysisError(f"unknown metric {metric!r}")
    require_purpose_support(snapshots, purpose)
    incidence = build_incidence(snapshots, purpose=purpose)
    with stage_timer(
        "analysis.distance",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "distance"},
        metric_name=metric,
        snapshots=len(snapshots),
    ):
        matrix = _KERNELS[metric](incidence)
    return LabelledMatrix(labels=incidence.labels, matrix=matrix)

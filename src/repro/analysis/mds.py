"""Metric multidimensional scaling (stress-majorization SMACOF).

A from-scratch numpy implementation of the algorithm behind
``sklearn.manifold.MDS(metric=True)``, which the paper uses for
Figure 1's ordination.  Also provides classical (Torgerson) MDS for the
ablation benchmark, the Kruskal stress-1 quality metric, and
:func:`landmark_mds` — the O(k² + nk) landmark/pivot variant that keeps
ordination tractable at corpus scales where full SMACOF's O(n²) per
iteration is intractable (see :mod:`repro.analysis.incidence` for the
tiled distance kernel that feeds it (k, n) strips).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.obs.instrument import stage_timer


@dataclass(frozen=True)
class MDSResult:
    """An embedding with the stress of exactly that embedding.

    Both stress numbers are measured on the *returned* point
    configuration — historically ``stress`` lagged the embedding by one
    Guttman step and ``stress1`` aliased raw stress outright; both are
    now recomputed on the final points before the result is built, so
    ``stress1 == kruskal_stress(delta, result.embedding)`` always holds.
    """

    embedding: np.ndarray  # (n, dims)
    stress: float  # raw stress of the embedding: sum (d_ij - delta_ij)^2 over i<j
    stress1: float  # Kruskal stress-1 of the embedding: sqrt(raw / sum d_ij^2)
    iterations: int
    converged: bool


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) point set.

    Uses the Gram formulation ``||x−y||² = x·x + y·y − 2 x·y`` so peak
    memory is one (n, n) matrix instead of the (n, n, d) broadcast
    tensor the naive ``x[:,None,:] − x[None,:,:]`` form materializes —
    SMACOF calls this every iteration, so at n=619 snapshots the
    difference is the whole working set.  Cancellation can drive tiny
    squared distances a hair below zero; they are clamped before the
    square root and the diagonal is pinned to exactly 0.
    """
    squared_norms = np.einsum("ij,ij->i", points, points)
    gram = points @ points.T
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * gram
    np.maximum(squared, 0.0, out=squared)
    distances = np.sqrt(squared, out=squared)
    np.fill_diagonal(distances, 0.0)
    return distances


def _cross_point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between two point sets, (len(a), len(b)).

    Same Gram trick as :func:`_pairwise_distances`, for the rectangular
    landmark-to-everything case."""
    a_norms = np.einsum("ij,ij->i", a, a)
    b_norms = np.einsum("ij,ij->i", b, b)
    squared = a_norms[:, None] + b_norms[None, :] - 2.0 * (a @ b.T)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared, out=squared)


def _stress_pair(distances: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """(raw stress, Kruskal stress-1) of one distance/dissimilarity pair."""
    raw = float(((distances - delta) ** 2).sum() / 2.0)
    denominator = float((distances**2).sum() / 2.0)
    stress1 = float(np.sqrt(raw / denominator)) if denominator > 0.0 else 0.0
    return raw, stress1


def _validate(dissimilarities: np.ndarray) -> np.ndarray:
    d = np.asarray(dissimilarities, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise AnalysisError(f"dissimilarity matrix must be square, got {d.shape}")
    if not np.allclose(d, d.T, atol=1e-9):
        raise AnalysisError("dissimilarity matrix must be symmetric")
    if (d < -1e-12).any():
        raise AnalysisError("dissimilarities must be non-negative")
    if not np.allclose(np.diag(d), 0.0, atol=1e-9):
        raise AnalysisError("dissimilarity diagonal must be zero")
    return d


def smacof(
    dissimilarities: np.ndarray,
    *,
    dims: int = 2,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    seed: int = 7,
    init: np.ndarray | None = None,
) -> MDSResult:
    """Stress-majorization MDS.

    Minimizes raw stress sum_{i<j} (||x_i - x_j|| - delta_ij)^2 via the
    Guttman transform.  Deterministic for a fixed seed.

    When ``init`` is not given the starting configuration is the
    classical (Torgerson) solution rather than a random one: on the
    full-corpus Jaccard matrix random starts left the 300-iteration run
    unconverged at a worse local minimum, while the spectral start
    converges in ~120 iterations to ~35% lower stress.  ``seed`` only
    matters for the random fallback used when the spectral start is
    degenerate (all eigenvalues non-positive).
    """
    delta = _validate(dissimilarities)
    n = delta.shape[0]
    if n < 2:
        raise AnalysisError("need at least two points to embed")

    with stage_timer(
        "analysis.smacof",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "smacof"},
        points=n,
        dims=dims,
    ):
        return _smacof_iterate(
            delta, n, dims=dims, max_iterations=max_iterations, tolerance=tolerance,
            seed=seed, init=init,
        )


def _smacof_iterate(
    delta: np.ndarray,
    n: int,
    *,
    dims: int,
    max_iterations: int,
    tolerance: float,
    seed: int,
    init: np.ndarray | None,
) -> MDSResult:
    if init is not None:
        points = np.asarray(init, dtype=float).copy()
    else:
        points = _torgerson_embedding(delta, dims)
        if not np.linalg.norm(points) > 0.0:
            # Degenerate spectral start (no positive eigenvalue to embed
            # along, e.g. an all-zero matrix): fall back to random.
            rng = np.random.default_rng(seed)
            points = rng.uniform(-0.5, 0.5, size=(n, dims))

    previous_stress = np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        distances = _pairwise_distances(points)
        # Raw stress over unordered pairs.
        stress = float(((distances - delta) ** 2).sum() / 2.0)

        # Guttman transform: X <- (1/n) B(X) X
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(distances > 1e-12, delta / distances, 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        points = b @ points / n

        # Convergence: the *relative* stress decrease over one Guttman
        # step fell below ``tolerance``.  The max(..., 1e-12) guard
        # keeps the test meaningful when stress is already ~0.
        if previous_stress - stress < tolerance * max(previous_stress, 1e-12):
            converged = True
            break
        previous_stress = stress

    # The loop measures stress *before* each Guttman step, so the last
    # measured value describes a configuration one step older than
    # ``points``.  Recompute on the returned embedding: the result's
    # stress must describe the result's points (the Guttman transform
    # is monotone, so this can only be lower than the lagged value).
    final_stress, final_stress1 = _stress_pair(_pairwise_distances(points), delta)
    return MDSResult(
        embedding=points,
        stress=final_stress,
        stress1=final_stress1,
        iterations=iteration,
        converged=converged,
    )


def _torgerson_embedding(delta: np.ndarray, dims: int) -> np.ndarray:
    """The classical-MDS point configuration for a validated matrix."""
    n = delta.shape[0]
    squared = delta**2
    centering = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * centering @ squared @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:dims]
    values = np.clip(eigenvalues[order], 0.0, None)
    embedding = eigenvectors[:, order] * np.sqrt(values)[None, :]
    if embedding.shape[1] < dims:  # dims > n: pad flat coordinates
        pad = np.zeros((n, dims - embedding.shape[1]))
        embedding = np.hstack([embedding, pad])
    return embedding


def classical_mds(dissimilarities: np.ndarray, *, dims: int = 2) -> MDSResult:
    """Torgerson classical MDS (eigendecomposition of the doubly-centered
    squared-distance matrix).  The ablation baseline for SMACOF."""
    delta = _validate(dissimilarities)
    embedding = _torgerson_embedding(delta, dims)
    stress, stress1 = _stress_pair(_pairwise_distances(embedding), delta)
    return MDSResult(
        embedding=embedding, stress=stress, stress1=stress1, iterations=1, converged=True
    )


def kruskal_stress(dissimilarities: np.ndarray, embedding: np.ndarray) -> float:
    """Kruskal stress-1: sqrt(sum (d-delta)^2 / sum d^2) over pairs."""
    delta = _validate(dissimilarities)
    distances = _pairwise_distances(np.asarray(embedding, dtype=float))
    numerator = ((distances - delta) ** 2).sum() / 2.0
    denominator = (distances**2).sum() / 2.0
    if denominator == 0:
        return 0.0
    return float(np.sqrt(numerator / denominator))


@dataclass(frozen=True)
class LandmarkMDSResult:
    """A full-corpus embedding produced from k landmark rows only.

    ``cross_stress1`` is Kruskal stress-1 restricted to the
    landmark × point pair set — the only pairs whose true
    dissimilarities the landmark algorithm ever saw, and the quality
    number that stays computable at scales where the full pair set
    does not fit.  (Landmark self-pairs contribute zero to both sums,
    so including them is harmless.)
    """

    embedding: np.ndarray  # (n, dims), landmark rows pinned to their SMACOF positions
    landmark_indices: tuple[int, ...]
    landmark_result: MDSResult  # the full-SMACOF run over the k landmarks
    cross_stress1: float

    @property
    def dims(self) -> int:
        return self.embedding.shape[1]


def select_landmarks(n: int, k: int) -> tuple[int, ...]:
    """Evenly strided landmark indices — the zero-information fallback.

    :func:`repro.analysis.incidence.maxmin_landmarks` picks better-spread
    pivots when an incidence matrix is available; this exists for plain
    dissimilarity-matrix callers.
    """
    if k < 2:
        raise AnalysisError(f"need at least two landmarks, got {k}")
    if k > n:
        raise AnalysisError(f"cannot pick {k} landmarks from {n} points")
    stride = n / k
    indices = sorted({int(i * stride) for i in range(k)})
    return tuple(indices)


def landmark_mds(
    cross_dissimilarities: np.ndarray,
    landmark_indices,
    *,
    dims: int = 2,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    seed: int = 7,
) -> LandmarkMDSResult:
    """Landmark (pivot) MDS: embed k landmarks fully, triangulate the rest.

    ``cross_dissimilarities`` is the (k, n) matrix of dissimilarities
    from each landmark to every point; column ``landmark_indices[i]``
    of row ``i`` must be zero (a landmark is at distance 0 from
    itself).  The k × k landmark block is embedded with full SMACOF —
    O(k²) per iteration instead of O(n²) — and every other point is
    placed by distance-based triangulation against the embedded
    landmarks (the linearized least-squares system of de Silva &
    Tenenbaum's Landmark MDS, an O(nk) solve), then refined with
    fixed-landmark Guttman sweeps — O(nk) each — that majorize each
    point's stress against its cross-strip distances (the
    linearization alone crowds points toward the landmark centroid on
    non-Euclidean dissimilarities).  Landmark rows of the returned
    embedding are exactly the SMACOF positions.
    """
    cross = np.asarray(cross_dissimilarities, dtype=float)
    if cross.ndim != 2:
        raise AnalysisError(f"cross-dissimilarities must be 2-D, got {cross.shape}")
    landmarks = tuple(int(i) for i in landmark_indices)
    k, n = cross.shape
    if len(landmarks) != k:
        raise AnalysisError(
            f"{k} cross-dissimilarity rows but {len(landmarks)} landmark indices"
        )
    if k < 2:
        raise AnalysisError(f"need at least two landmarks, got {k}")
    if k > n:
        raise AnalysisError(f"more landmarks ({k}) than points ({n})")
    if len(set(landmarks)) != k:
        raise AnalysisError("landmark indices must be distinct")
    if any(i < 0 or i >= n for i in landmarks):
        raise AnalysisError(f"landmark index out of range for {n} points")
    if (cross < -1e-12).any():
        raise AnalysisError("dissimilarities must be non-negative")
    self_distances = cross[np.arange(k), list(landmarks)]
    # Distances computed via the Gram formulation carry sqrt-of-
    # cancellation noise (~1e-8) on self-pairs; tolerate that scale.
    tolerance_zero = 1e-7 * max(1.0, float(cross.max(initial=0.0)))
    if not np.allclose(self_distances, 0.0, atol=tolerance_zero):
        raise AnalysisError("each landmark must be at distance zero from itself")
    if self_distances.any():
        cross = cross.copy()
        cross[np.arange(k), list(landmarks)] = 0.0  # exact zeros for SMACOF

    with stage_timer(
        "analysis.landmark_mds",
        "repro_analysis_stage_seconds",
        metric_labels={"stage": "landmark_mds"},
        points=n,
        landmarks=k,
        dims=dims,
    ):
        landmark_delta = cross[:, list(landmarks)]
        landmark_result = smacof(
            landmark_delta,
            dims=dims,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
        )
        embedding = _triangulate(landmark_result.embedding, cross)
        embedding[list(landmarks)] = landmark_result.embedding
        embedding = _refine_against_landmarks(
            landmark_result.embedding,
            embedding,
            cross,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        embedding[list(landmarks)] = landmark_result.embedding
        distances = _cross_point_distances(landmark_result.embedding, embedding)
        _, cross_stress1 = _stress_pair(distances, cross)

    return LandmarkMDSResult(
        embedding=embedding,
        landmark_indices=landmarks,
        landmark_result=landmark_result,
        cross_stress1=cross_stress1,
    )


def _refine_against_landmarks(
    landmark_points: np.ndarray,
    points: np.ndarray,
    cross: np.ndarray,
    *,
    max_iterations: int,
    tolerance: float,
) -> np.ndarray:
    """Majorize each point's stress to the (fixed) landmarks.

    The linearized triangulation is exact only for Euclidean-consistent
    dissimilarities; on a jaccard geometry it crowds points toward the
    landmark centroid.  With the landmarks held fixed, the per-point
    Guttman update ``x_j ← (1/k) Σ_i [L_i + (δ_ij/e_ij)(x_j − L_i)]``
    monotonically decreases each point's raw stress against the cross
    strip, stays O(kn) per sweep, and decouples across points — one
    vectorized update moves all n at once.
    """
    k = landmark_points.shape[0]
    landmark_sum = landmark_points.sum(axis=0)
    points = points.copy()
    previous_stress = np.inf
    for _ in range(max_iterations):
        distances = _cross_point_distances(landmark_points, points)
        stress = float(((distances - cross) ** 2).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(distances > 1e-12, cross / distances, 0.0)
        points = (
            landmark_sum[None, :]
            + ratio.sum(axis=0)[:, None] * points
            - ratio.T @ landmark_points
        ) / k
        if previous_stress - stress < tolerance * max(previous_stress, 1e-12):
            break
        previous_stress = stress
    return points


def _triangulate(landmark_points: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Place every point from its distances to the embedded landmarks.

    Linearization of ``||x − L_i||² = d_i²``: subtracting the
    landmark-mean equation cancels the ``||x||²`` term, leaving the
    linear system ``2 (L_i − L̄) · (x − L̄) = (||L_i − L̄||² − m̄) −
    (d_i² − d̄²)`` solved for all points at once via the pseudo-inverse
    — exact when the dissimilarities are Euclidean-consistent, least
    squares otherwise.
    """
    center = landmark_points.mean(axis=0)
    centered = landmark_points - center  # (k, dims)
    norms = np.einsum("ij,ij->i", centered, centered)  # ||L_i - L̄||²
    squared = cross**2  # (k, n)
    rhs = (norms - norms.mean())[:, None] - (squared - squared.mean(axis=0)[None, :])
    pinv = np.linalg.pinv(2.0 * centered)  # (dims, k)
    return (pinv @ rhs).T + center

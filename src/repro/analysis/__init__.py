"""Analysis layer: every measurement in the paper's evaluation.

- :mod:`repro.analysis.jaccard` / :mod:`repro.analysis.mds` /
  :mod:`repro.analysis.families` — Figure 1 ordination.
- :mod:`repro.analysis.ecosystem` — Figure 2 pyramid.
- :mod:`repro.analysis.lineage` / :mod:`repro.analysis.staleness` —
  Figure 3 derivative staleness.
- :mod:`repro.analysis.diffs` — Figure 4 deviation taxonomy.
- :mod:`repro.analysis.hygiene` — Table 3.
- :mod:`repro.analysis.removals` — Tables 4 and 7.
- :mod:`repro.analysis.exclusives` — Table 6 / Appendix B.
- :mod:`repro.analysis.report` — text rendering.
"""

from repro.analysis.diffs import (
    CATEGORIES,
    CATEGORY_CUSTOM,
    CATEGORY_EMAIL,
    CATEGORY_NON_NSS,
    CATEGORY_SYMANTEC,
    DeviationPoint,
    DeviationSeries,
    corpus_classifier,
    deviation_report,
    deviation_series,
)
from repro.analysis.ecosystem import (
    PyramidStats,
    build_ecosystem_graph,
    provider_reachability,
    pyramid_stats,
)
from repro.analysis.exclusives import ExclusiveRoot, exclusive_roots, exclusives_report
from repro.analysis.families import (
    FamilyAssignment,
    OutlierSnapshot,
    ProviderMatrix,
    cluster_families,
    find_outliers,
    provider_distance_matrix,
)
from repro.analysis.hygiene import HygieneRow, hygiene_report, hygiene_row, rank_by_hygiene
from repro.analysis.incidence import (
    IncidenceMatrix,
    build_incidence,
    cross_distances,
    incidence_from_sets,
    jaccard_distances,
    maxmin_landmarks,
    overlap_distances,
)
from repro.analysis.jaccard import (
    LabelledMatrix,
    collect_snapshots,
    distance_matrix,
)
from repro.analysis.lineage import (
    LineageMatch,
    lineage_accuracy,
    match_history,
    match_snapshot,
    substantial_versions,
)
from repro.analysis.agility import (
    AgilityProfile,
    ProjectionCheck,
    agility_profile,
    agility_report,
    projection_check,
)
from repro.analysis.constraints import (
    AttackSurface,
    InferredConstraints,
    IssuanceProfile,
    attack_surface,
    constraints_extension,
    infer_constraints,
    issuance_profile,
)
from repro.analysis.mds import (
    LandmarkMDSResult,
    MDSResult,
    classical_mds,
    kruskal_stress,
    landmark_mds,
    select_landmarks,
    smacof,
)
from repro.analysis.timeseries import chart, resample, sparkline
from repro.analysis.minimization import (
    MinimizationResult,
    TrafficModel,
    coverage_curve,
    minimal_root_set,
    zipf_traffic,
)
from repro.analysis.purposes import (
    PurposeExposure,
    conflation_timeline,
    purpose_exposure,
    purpose_exposure_report,
)
from repro.analysis.removals import (
    RemovalRow,
    ResponseRow,
    measure_removal,
    measure_response,
    nss_removal_report,
    response_report,
)
from repro.analysis.report import render_table
from repro.analysis.scorecard import ProgramScore, scorecard
from repro.analysis.sharing import (
    OverlapMatrix,
    SharingDistribution,
    overlap_matrix,
    sharing_distribution,
    sharing_timeline,
)
from repro.analysis.staleness import StalenessSeries, staleness_report, staleness_series

__all__ = [
    "AgilityProfile",
    "AttackSurface",
    "CATEGORIES",
    "CATEGORY_CUSTOM",
    "CATEGORY_EMAIL",
    "CATEGORY_NON_NSS",
    "CATEGORY_SYMANTEC",
    "DeviationPoint",
    "DeviationSeries",
    "ExclusiveRoot",
    "FamilyAssignment",
    "HygieneRow",
    "IncidenceMatrix",
    "InferredConstraints",
    "IssuanceProfile",
    "LabelledMatrix",
    "LandmarkMDSResult",
    "LineageMatch",
    "MDSResult",
    "MinimizationResult",
    "OutlierSnapshot",
    "OverlapMatrix",
    "ProgramScore",
    "ProjectionCheck",
    "SharingDistribution",
    "PurposeExposure",
    "ProviderMatrix",
    "PyramidStats",
    "RemovalRow",
    "ResponseRow",
    "StalenessSeries",
    "TrafficModel",
    "agility_profile",
    "agility_report",
    "attack_surface",
    "build_ecosystem_graph",
    "build_incidence",
    "chart",
    "conflation_timeline",
    "constraints_extension",
    "coverage_curve",
    "classical_mds",
    "cluster_families",
    "collect_snapshots",
    "corpus_classifier",
    "cross_distances",
    "deviation_report",
    "deviation_series",
    "distance_matrix",
    "exclusive_roots",
    "exclusives_report",
    "find_outliers",
    "hygiene_report",
    "hygiene_row",
    "incidence_from_sets",
    "infer_constraints",
    "issuance_profile",
    "jaccard_distances",
    "kruskal_stress",
    "landmark_mds",
    "lineage_accuracy",
    "match_history",
    "match_snapshot",
    "maxmin_landmarks",
    "measure_removal",
    "measure_response",
    "minimal_root_set",
    "nss_removal_report",
    "overlap_matrix",
    "projection_check",
    "purpose_exposure",
    "purpose_exposure_report",
    "resample",
    "scorecard",
    "sharing_distribution",
    "sharing_timeline",
    "overlap_distances",
    "provider_distance_matrix",
    "provider_reachability",
    "pyramid_stats",
    "rank_by_hygiene",
    "render_table",
    "response_report",
    "select_landmarks",
    "smacof",
    "sparkline",
    "staleness_report",
    "staleness_series",
    "substantial_versions",
    "zipf_traffic",
]

"""Derivative lineage inference: which NSS version does a snapshot copy?

Because derivative root stores modify NSS and ship without provenance,
Section 6.1 matches each derivative snapshot to the NSS version at
minimum Jaccard distance.  ``match_history`` performs that matching;
tests validate it against the simulator's ground-truth version labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro.errors import AnalysisError
from repro.store.history import StoreHistory
from repro.store.purposes import TrustPurpose
from repro.store.snapshot import RootStoreSnapshot


@dataclass(frozen=True)
class LineageMatch:
    """One derivative snapshot matched to its closest NSS version."""

    provider: str
    taken_at: date
    version: str
    matched_nss_version: str
    matched_nss_date: date
    #: index of the matched version in the substantial-version sequence
    matched_nss_index: int
    distance: float


def substantial_versions(nss_history: StoreHistory) -> list[RootStoreSnapshot]:
    """NSS snapshots that changed the TLS set (Figure 3's y-axis)."""
    return nss_history.substantial_snapshots()


def match_snapshot(
    snapshot: RootStoreSnapshot,
    nss_versions: list[RootStoreSnapshot],
    *,
    no_future: bool = True,
) -> LineageMatch:
    """The closest NSS substantial version by Jaccard distance.

    ``no_future`` restricts candidates to NSS versions released on or
    before the derivative snapshot (a derivative cannot copy a version
    from the future); ties prefer the most recent candidate.
    """
    if not nss_versions:
        raise AnalysisError("no NSS versions to match against")
    tls = TrustPurpose.SERVER_AUTH
    best_index = None
    best_distance = None
    for index, candidate in enumerate(nss_versions):
        if no_future and candidate.taken_at > snapshot.taken_at:
            break
        d = snapshot.jaccard_distance(candidate, tls)
        if best_distance is None or d <= best_distance:
            best_distance = d
            best_index = index
    if best_index is None:
        # Snapshot predates all NSS versions; match the earliest.
        best_index = 0
        best_distance = snapshot.jaccard_distance(nss_versions[0], tls)
    matched = nss_versions[best_index]
    return LineageMatch(
        provider=snapshot.provider,
        taken_at=snapshot.taken_at,
        version=snapshot.version,
        matched_nss_version=matched.version,
        matched_nss_date=matched.taken_at,
        matched_nss_index=best_index,
        distance=float(best_distance),
    )


def match_history(
    derivative: StoreHistory,
    nss_history: StoreHistory,
    *,
    no_future: bool = True,
) -> list[LineageMatch]:
    """Match every snapshot of a derivative to its NSS ancestor."""
    versions = substantial_versions(nss_history)
    return [match_snapshot(s, versions, no_future=no_future) for s in derivative]


def lineage_accuracy(matches: list[LineageMatch]) -> float:
    """Fraction of matches whose inferred NSS version equals the
    ground-truth label the simulator stamped on the snapshot.

    Derivative snapshot versions carry the copied NSS version (possibly
    with a ``.patch`` suffix); exact-prefix agreement counts as correct.
    """
    if not matches:
        return 1.0
    correct = 0
    for match in matches:
        truth = match.version.split(".")
        inferred = match.matched_nss_version.split(".")
        if truth[:2] == inferred[:2]:
            correct += 1
    return correct / len(matches)

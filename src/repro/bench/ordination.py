"""The ``ordination`` suite — timings behind ``BENCH_ordination.json``.

The suite measures four things, mirroring the optimization work they
guard:

- **distance**: the full-dataset Jaccard distance matrix through the
  tiled incidence kernel (its exactness against the per-pair oracle is
  a tier-1 test, not a bench section).
- **mds**: SMACOF stress-majorization on that matrix (the Figure 1
  embedding), whose per-iteration distance computation uses the Gram
  formulation.
- **intern**: parsing every certificate occurrence across the dataset
  with the intern pool cleared before each parse (every DER parsed)
  vs. kept (each unique DER parsed once, duplicates served from the
  pool).
- **scrape**: publishing and re-scraping provider histories serially
  vs. with ``scrape_history(workers=4)`` against origins that stall
  like a network fetch, asserting the outputs are identical.  Pure
  in-memory scrapes are GIL-bound and not timed; serial == parallel
  identity there is a tier-1 test.
"""

from __future__ import annotations

import time

from repro.analysis.jaccard import collect_snapshots, distance_matrix
from repro.analysis.mds import smacof
from repro.bench.runner import Floor, Suite, timed
from repro.collection.publish import publish_history
from repro.collection.scrape import scrape_history
from repro.store.history import Dataset
from repro.x509.certificate import (
    Certificate,
    certificate_intern_stats,
    clear_certificate_intern_pool,
)

#: How many snapshots the smoke subset keeps.
SMOKE_SNAPSHOTS = 12
#: How many providers the smoke scrape section visits.
SMOKE_PROVIDERS = 1
#: Thread-pool width of the parallel scrape.
SCRAPE_WORKERS = 4


def _bench_mds(snapshots) -> tuple[dict, dict]:
    vectorized_s, vectorized = timed(lambda: distance_matrix(snapshots, metric="jaccard"))
    smacof_s, result = timed(lambda: smacof(vectorized.matrix, dims=2))
    return {"vectorized_s": vectorized_s}, {
        "smacof_s": smacof_s,
        "iterations": result.iterations,
        "stress": result.stress,
        "converged": result.converged,
    }


def _bench_intern(snapshots) -> dict:
    #: every certificate *occurrence* — duplicates across providers and
    #: snapshots included, which is exactly what collection re-parses.
    ders = [e.certificate.der for s in snapshots for e in s]
    unique = len(set(ders))

    # Parsed certificates are retained for the duration of each round —
    # as collection does — so the weak-ref intern pool can actually
    # serve duplicates instead of watching each parse get collected.
    def fresh():
        parsed = []
        for der in ders:
            clear_certificate_intern_pool()
            parsed.append(Certificate.from_der(der))
        return parsed

    def interned():
        clear_certificate_intern_pool()
        return [Certificate.from_der(der) for der in ders]

    fresh_s, _ = timed(fresh)
    interned_s, _ = timed(interned)
    stats = certificate_intern_stats()
    return {
        "certificates": len(ders),
        "unique": unique,
        "fresh_s": fresh_s,
        "interned_s": interned_s,
        "speedup": fresh_s / interned_s if interned_s > 0 else float("inf"),
        "hit_rate": stats.hit_rate,
    }


class _LatentTagged:
    """A tagged tree whose ``tree`` access stalls like a real fetch."""

    def __init__(self, tagged, latency_s: float):
        self._tagged = tagged
        self._latency_s = latency_s
        self.tag = tagged.tag
        self.released = tagged.released

    @property
    def tree(self):
        time.sleep(self._latency_s)
        return self._tagged.tree


class _LatentOrigin:
    """Wraps an origin so each tag fetch costs ``latency_s`` wall time.

    The simulated origins are in-memory dicts, so a plain scrape is
    pure CPU and (under the GIL) shows what threads cost, not what
    they buy.  Real scraping is dominated by network waits — this
    wrapper restores that shape so the workers measurement reflects
    the workload the pool exists for.
    """

    def __init__(self, base, latency_s: float):
        self._base = base
        self._latency_s = latency_s

    def __iter__(self):
        for tagged in self._base:
            yield _LatentTagged(tagged, self._latency_s)


def _bench_scrape(dataset: Dataset, providers: list[str], *, latency_ms: float) -> dict:
    origins = {p: publish_history(dataset[p]) for p in providers}
    tags = sum(len(list(origins[p])) for p in providers)
    latency_s = latency_ms / 1000.0

    def run(n_workers: int):
        # Cold pool each run so both sides pay identical parse costs.
        clear_certificate_intern_pool()
        return {
            p: scrape_history(p, _LatentOrigin(origins[p], latency_s), workers=n_workers)
            for p in providers
        }

    latent_serial_s, serial = timed(lambda: run(1))
    latent_parallel_s, parallel = timed(lambda: run(SCRAPE_WORKERS))
    return {
        "providers": len(providers),
        "tags": tags,
        "workers": SCRAPE_WORKERS,
        "latency_ms": latency_ms,
        "latent_serial_s": latent_serial_s,
        "latent_parallel_s": latent_parallel_s,
        "latent_speedup": (
            latent_serial_s / latent_parallel_s if latent_parallel_s > 0 else float("inf")
        ),
        "identical": all(serial[p].snapshots == parallel[p].snapshots for p in providers),
    }


def run(dataset: Dataset, smoke: bool) -> dict:
    snapshots = collect_snapshots(dataset)
    providers = list(dataset.providers)
    if smoke:
        snapshots = snapshots[:SMOKE_SNAPSHOTS]
        providers = providers[:SMOKE_PROVIDERS]
    distance, mds = _bench_mds(snapshots)
    return {
        "snapshots": len(snapshots),
        "distance": distance,
        "mds": mds,
        "intern": _bench_intern(snapshots),
        # Real origin fetches are network round-trips (tens of ms); the
        # simulated latency must exceed per-tag CPU (~12 ms at full
        # size) for the workload to be latency-shaped at all.
        "scrape": _bench_scrape(dataset, providers, latency_ms=1.0 if smoke else 15.0),
    }


SUITE = Suite(
    name="ordination",
    output="BENCH_ordination.json",
    run=run,
    floors=(
        Floor("scrape.identical", always=True),
        Floor("intern.speedup", ">=", 2.0),
        Floor("scrape.latent_speedup", ">=", 1.5),
    ),
)

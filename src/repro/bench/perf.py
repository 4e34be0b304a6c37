"""Timings for the repository's performance-critical paths.

The suite measures four things, mirroring the optimization work they
guard:

- **distance**: the full-dataset Jaccard distance matrix through the
  tiled incidence kernel (its exactness against the per-pair oracle is
  a tier-1 test, not a bench section).
- **mds**: SMACOF stress-majorization on that matrix (the Figure 1
  embedding), whose per-iteration distance computation uses the Gram
  formulation.
- **intern**: parsing every certificate occurrence across the dataset
  with interning off (every DER parsed) vs. on (each unique DER parsed
  once, duplicates served from the pool).
- **scrape**: publishing and re-scraping provider histories serially
  vs. with ``scrape_history(workers=N)``, asserting the outputs are
  identical.  Under CPython's GIL the simulated (in-memory, CPU-bound)
  origins see little thread speedup — the measurement records whatever
  the hardware gives; real scraping is network-bound, which is what the
  worker pool is shaped for.

Timing uses ``time.perf_counter`` — the bench layer is the one place
the repository's "no wall-clock" rule does not apply, because wall
clock *is* the measurand.  ``REPRO_BENCH_SMOKE=1`` switches every
consumer to a tiny snapshot subset and a single round, cheap enough to
ride inside the tier-1 test run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.jaccard import collect_snapshots, distance_matrix
from repro.analysis.mds import smacof
from repro.collection.publish import publish_history
from repro.collection.scrape import scrape_history
from repro.obs.instrument import set_gauge
from repro.store.history import Dataset
from repro.x509.certificate import (
    Certificate,
    certificate_intern_stats,
    clear_certificate_intern_pool,
)

#: Environment toggle: tiny dataset, one round — wired into tier-1.
SMOKE_ENV = "REPRO_BENCH_SMOKE"
#: How many snapshots the smoke subset keeps.
SMOKE_SNAPSHOTS = 12
#: How many providers the smoke scrape section visits.
SMOKE_PROVIDERS = 1


def is_smoke_mode() -> bool:
    """Whether the environment requests the cheap smoke configuration."""
    return os.environ.get(SMOKE_ENV, "") == "1"


@dataclass(frozen=True)
class PerfSuite:
    """One run of the harness: the result dict plus output location."""

    results: dict
    output_path: Path | None

    def summary_lines(self) -> list[str]:
        """Human-readable rendering for the CLI."""
        r = self.results
        lines = [
            f"mode                : {r['mode']} ({r['snapshots']} snapshots)",
            f"distance vectorized : {r['distance']['vectorized_s']:.4f} s",
            f"smacof              : {r['mds']['smacof_s']:.4f} s "
            f"({r['mds']['iterations']} iterations, stress {r['mds']['stress']:.2f})",
            f"parse fresh         : {r['intern']['fresh_s']:.4f} s "
            f"({r['intern']['certificates']} certificates)",
            f"parse interned      : {r['intern']['interned_s']:.4f} s "
            f"({r['intern']['speedup']:.1f}x, {r['intern']['unique']} unique, "
            f"hit rate {r['intern']['hit_rate']:.0%})",
            f"scrape serial       : {r['scrape']['serial_s']:.4f} s "
            f"({r['scrape']['providers']} providers, {r['scrape']['tags']} tags)",
            f"scrape workers={r['scrape']['workers']}    : "
            f"{r['scrape']['parallel_s']:.4f} s "
            f"({r['scrape']['speedup']:.2f}x, identical={r['scrape']['identical']})",
            f"scrape @{r['scrape']['latency_ms']:.0f}ms origin : "
            f"{r['scrape']['latent_serial_s']:.4f} s serial, "
            f"{r['scrape']['latent_parallel_s']:.4f} s parallel "
            f"({r['scrape']['latent_speedup']:.2f}x)",
        ]
        return lines


def _timed(
    fn: Callable[[], object],
    *,
    rounds: int,
    suite: str | None = None,
    section: str | None = None,
) -> tuple[float, object]:
    """Best-of-``rounds`` wall time plus the last return value.

    When ``suite``/``section`` are given, the best time is also
    recorded in the active telemetry registry as the
    ``repro_bench_section_seconds`` gauge, so bench runs surface
    through ``obs report`` exactly like production timings.
    """
    best = float("inf")
    value: object = None
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    if section is not None:
        set_gauge(
            "repro_bench_section_seconds", best, suite=suite or "bench", section=section
        )
    return best, value


def _bench_distance(snapshots, *, rounds: int) -> dict:
    vectorized_s, vectorized = _timed(
        lambda: distance_matrix(snapshots, metric="jaccard"),
        rounds=rounds,
        suite="perf",
        section="distance_vectorized",
    )
    return {
        "vectorized_s": vectorized_s,
        "matrix": vectorized.matrix,  # handed to the MDS section, stripped on dump
    }


def _bench_mds(matrix: np.ndarray, *, rounds: int) -> dict:
    smacof_s, result = _timed(
        lambda: smacof(matrix, dims=2), rounds=rounds, suite="perf", section="mds_smacof"
    )
    return {
        "smacof_s": smacof_s,
        "iterations": result.iterations,
        "stress": result.stress,
        "converged": result.converged,
    }


def _bench_intern(snapshots, *, rounds: int) -> dict:
    #: every certificate *occurrence* — duplicates across providers and
    #: snapshots included, which is exactly what collection re-parses.
    ders = [e.certificate.der for s in snapshots for e in s]
    unique = len(set(ders))

    # Parsed certificates are retained for the duration of each round —
    # as collection does — so the weak-ref intern pool can actually
    # serve duplicates instead of watching each parse get collected.
    def fresh():
        clear_certificate_intern_pool()
        return [Certificate.from_der(der, intern=False) for der in ders]

    def interned():
        clear_certificate_intern_pool()
        return [Certificate.from_der(der, intern=True) for der in ders]

    fresh_s, _ = _timed(fresh, rounds=rounds, suite="perf", section="intern_fresh")
    interned_s, _ = _timed(interned, rounds=rounds, suite="perf", section="intern_interned")
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


def _bench_scrape(
    dataset: Dataset,
    providers: list[str],
    *,
    workers: int,
    rounds: int,
    latency_ms: float,
) -> dict:
    origins = {p: publish_history(dataset[p]) for p in providers}
    tags = sum(len(list(origins[p])) for p in providers)

    def run(n_workers: int, latency_s: float = 0.0):
        # Cold pool each run so every variant pays identical parse costs.
        clear_certificate_intern_pool()
        return {
            p: scrape_history(
                p,
                _LatentOrigin(origins[p], latency_s) if latency_s > 0 else origins[p],
                workers=n_workers,
            )
            for p in providers
        }

    serial_s, serial = _timed(
        lambda: run(1), rounds=rounds, suite="perf", section="scrape_serial"
    )
    parallel_s, parallel = _timed(
        lambda: run(workers), rounds=rounds, suite="perf", section="scrape_parallel"
    )
    latency_s = latency_ms / 1000.0
    latent_serial_s, _ = _timed(
        lambda: run(1, latency_s), rounds=rounds, suite="perf", section="scrape_latent_serial"
    )
    latent_parallel_s, latent = _timed(
        lambda: run(workers, latency_s),
        rounds=rounds,
        suite="perf",
        section="scrape_latent_parallel",
    )
    identical = all(
        serial[p].snapshots == parallel[p].snapshots == latent[p].snapshots
        for p in providers
    )
    return {
        "providers": len(providers),
        "tags": tags,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "latency_ms": latency_ms,
        "latent_serial_s": latent_serial_s,
        "latent_parallel_s": latent_parallel_s,
        "latent_speedup": (
            latent_serial_s / latent_parallel_s if latent_parallel_s > 0 else float("inf")
        ),
        "identical": identical,
    }


def run_perf_suite(
    dataset: Dataset | None = None,
    *,
    smoke: bool | None = None,
    workers: int = 4,
    rounds: int | None = None,
    output: Path | str | None = None,
) -> PerfSuite:
    """Run every section and optionally write ``BENCH_ordination.json``.

    ``smoke=None`` reads :data:`SMOKE_ENV`; smoke mode trims the
    snapshot set to :data:`SMOKE_SNAPSHOTS`, visits one provider in the
    scrape section, and runs one round.
    """
    if smoke is None:
        smoke = is_smoke_mode()
    if rounds is None:
        rounds = 1
    if dataset is None:
        from repro.simulation import default_corpus

        dataset = default_corpus().dataset

    snapshots = collect_snapshots(dataset)
    providers = list(dataset.providers)
    if smoke:
        snapshots = snapshots[:SMOKE_SNAPSHOTS]
        providers = providers[:SMOKE_PROVIDERS]

    distance = _bench_distance(snapshots, rounds=rounds)
    matrix = distance.pop("matrix")
    results = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "snapshots": len(snapshots),
        "distance": distance,
        "mds": _bench_mds(matrix, rounds=rounds),
        "intern": _bench_intern(snapshots, rounds=rounds),
        "scrape": _bench_scrape(
            dataset,
            providers,
            workers=workers,
            rounds=rounds,
            # Real origin fetches are network round-trips (tens of ms);
            # the simulated latency must exceed per-tag CPU (~12 ms at
            # full size) for the workload to be latency-shaped at all.
            latency_ms=1.0 if smoke else 15.0,
        ),
    }

    output_path = Path(output) if output is not None else None
    if output_path is not None:
        output_path.write_text(json.dumps(results, indent=2) + "\n")
    return PerfSuite(results=results, output_path=output_path)

"""The single declaration point for every public metric name.

Naming convention: ``repro_<layer>_<what>_<unit-or-total>`` —
``repro_formats_parse_total``, ``repro_archive_commit_seconds``.
Counters end in ``_total``, histograms in their unit (``_seconds``),
gauges in a noun.  Labels are closed vocabularies (provider keys,
codec names, fixed outcome sets), never free-form strings, so series
cardinality stays bounded.

Product code never calls ``registry.counter(...)`` with an ad-hoc
name; it goes through :mod:`repro.obs.instrument`, which looks specs
up here.  That gives two guarantees the tier-1 check asserts:

- every public metric name is declared exactly once (``METRICS`` has
  no duplicate names), and
- an instrumentation site cannot drift from the declared type/labels —
  the registry raises :class:`~repro.errors.ObservabilityError` on any
  conflicting registration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import COUNTER, DEFAULT_SECONDS_BUCKETS, GAUGE, HISTOGRAM


@dataclass(frozen=True)
class MetricSpec:
    """One declared public metric."""

    name: str
    type: str
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None


METRICS: tuple[MetricSpec, ...] = (
    # -- formats: per-codec parse outcomes and latency -------------------
    MetricSpec(
        "repro_formats_parse_total", COUNTER,
        "Codec parse calls by outcome (ok|error).", ("codec", "outcome"),
    ),
    MetricSpec(
        "repro_formats_parse_seconds", HISTOGRAM,
        "Wall time of one codec parse call.", ("codec",), DEFAULT_SECONDS_BUCKETS,
    ),
    # -- collection: per-provider scrape accounting ----------------------
    MetricSpec(
        "repro_collection_scrape_seconds", HISTOGRAM,
        "Wall time of scrape_history per provider.", ("provider",), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_collection_tags_total", COUNTER,
        "Visited origin tags by final status (ok|salvaged|quarantined|duplicate).",
        ("provider", "status"),
    ),
    MetricSpec(
        "repro_collection_attempts_total", COUNTER,
        "Per-tag scrape attempts, including retries.", ("provider",),
    ),
    MetricSpec(
        "repro_collection_retries_total", COUNTER,
        "Retried (transient-failure) scrape attempts.", ("provider",),
    ),
    # -- archive writer: journal/commit phases ---------------------------
    MetricSpec(
        "repro_archive_journal_seconds", HISTOGRAM,
        "Write-ahead journal record latency by phase (snapshot|catalog).",
        ("phase",), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_archive_commit_seconds", HISTOGRAM,
        "Atomic catalog commit latency (journal intent through replace).",
        (), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_archive_snapshots_total", COUNTER,
        "Ingested snapshots by outcome (added|replaced|unchanged).", ("outcome",),
    ),
    MetricSpec(
        "repro_archive_objects_total", COUNTER,
        "Certificate objects by write outcome (written|deduplicated).", ("outcome",),
    ),
    # -- archive query: cache and degraded-mode accounting ---------------
    MetricSpec(
        "repro_archive_cache_total", COUNTER,
        "Query LRU lookups by cache (manifest|snapshot) and outcome (hit|miss).",
        ("cache", "outcome"),
    ),
    MetricSpec(
        "repro_archive_degraded_skips_total", COUNTER,
        "Snapshots a degraded corpus query had to skip.", ("provider",),
    ),
    MetricSpec(
        "repro_archive_stale_detected_total", COUNTER,
        "Catalog-changed-under-live-query detections (raise|refresh).", ("action",),
    ),
    MetricSpec(
        "repro_archive_cache_heal_total", COUNTER,
        "Damaged result-cache entries quarantined on first read, per "
        "namespace.", ("namespace",),
    ),
    # -- watch: continuous-ingestion loop --------------------------------
    MetricSpec(
        "repro_watch_cycle_seconds", HISTOGRAM,
        "Simulated-clock duration of one watch cycle.", (), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_watch_breaker_state", GAUGE,
        "Per-origin circuit breaker state (0 closed, 1 half-open, 2 open).",
        ("origin",),
    ),
    MetricSpec(
        "repro_watch_delta_snapshots_total", COUNTER,
        "Delta snapshots per origin by outcome (ingested|quarantined|deferred).",
        ("origin", "outcome"),
    ),
    MetricSpec(
        "repro_archive_index_updates_total", COUNTER,
        "Index maintenance at commit by mode (delta|rebuild).", ("mode",),
    ),
    # -- serving: the trust-query daemon ---------------------------------
    MetricSpec(
        "repro_serving_request_seconds", HISTOGRAM,
        "Wall time of one served operation (trusted_on|ever_shipped|"
        "snapshot_at|diff|batch).", ("op",), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_serving_requests_total", COUNTER,
        "Served operations by outcome (ok|error).", ("op", "outcome"),
    ),
    MetricSpec(
        "repro_serving_batch_fingerprints", HISTOGRAM,
        "Fingerprints per trusted_on batch request.", ("op",),
        (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0),
    ),
    MetricSpec(
        "repro_serving_in_flight", GAUGE,
        "Requests currently being handled by this worker.", (),
    ),
    MetricSpec(
        "repro_serving_remaps_total", COUNTER,
        "Catalog-hash staleness detections that remapped the index "
        "mid-serve (no restart).", (),
    ),
    MetricSpec(
        "repro_serving_worker_requests_total", COUNTER,
        "Requests handled per pre-forked worker.", ("worker",),
    ),
    MetricSpec(
        "repro_serving_shed_total", COUNTER,
        "Requests shed (503 + Retry-After) over the in-flight admission "
        "limit, per worker.", ("worker",),
    ),
    MetricSpec(
        "repro_serving_deadline_total", COUNTER,
        "Batch slots answered 'deadline budget exhausted' instead of "
        "running.", ("op",),
    ),
    MetricSpec(
        "repro_serving_worker_restarts_total", COUNTER,
        "Dead workers re-forked by the fleet supervisor, per slot.",
        ("slot",),
    ),
    MetricSpec(
        "repro_serving_fleet_degraded", GAUGE,
        "1 while any worker slot has tripped its restart budget "
        "(crash storm), else 0.", (),
    ),
    MetricSpec(
        "repro_serving_drain_seconds", HISTOGRAM,
        "Wall time of the drain -> reap -> force-kill stop sequence.",
        (), DEFAULT_SECONDS_BUCKETS,
    ),
    # -- analysis: stage latency -----------------------------------------
    MetricSpec(
        "repro_analysis_stage_seconds", HISTOGRAM,
        "Analysis stage wall time (incidence|distance|smacof|landmark_mds).",
        ("stage",), DEFAULT_SECONDS_BUCKETS,
    ),
    # -- simulation: corpus/population synthesis -------------------------
    MetricSpec(
        "repro_simulation_stage_seconds", HISTOGRAM,
        "Simulation stage wall time (population).",
        ("stage",), DEFAULT_SECONDS_BUCKETS,
    ),
    # -- scenario: the what-if incident engine ---------------------------
    MetricSpec(
        "repro_scenario_chains_total", COUNTER,
        "Workload chains verified across the grid by outcome (valid|invalid).",
        ("outcome",),
    ),
    MetricSpec(
        "repro_scenario_cache_total", COUNTER,
        "Per-cell result-cache lookups by outcome (hit|miss|skip).", ("outcome",),
    ),
    MetricSpec(
        "repro_scenario_stage_seconds", HISTOGRAM,
        "Scenario engine stage wall time (compile|grid|validate).",
        ("stage",), DEFAULT_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "repro_scenario_pool_workers", GAUGE,
        "Process-pool size of the last scenario sweep (1 = serial).", (),
    ),
    MetricSpec(
        "repro_scenario_redispatch_total", COUNTER,
        "Chunk re-dispatches after pool-worker death by outcome "
        "(requeued|exhausted).", ("outcome",),
    ),
    # -- bench: the regression suites share this registry ----------------
    MetricSpec(
        "repro_bench_section_seconds", GAUGE,
        "Best-of-rounds wall time of one bench suite section.", ("suite", "section"),
    ),
)

#: name -> spec, the lookup instrumentation sites use.
SPECS: dict[str, MetricSpec] = {spec.name: spec for spec in METRICS}


def duplicate_names() -> list[str]:
    """Public metric names declared more than once (must be empty)."""
    seen: set[str] = set()
    duplicates: list[str] = []
    for spec in METRICS:
        if spec.name in seen:
            duplicates.append(spec.name)
        seen.add(spec.name)
    return duplicates

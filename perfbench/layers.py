"""The per-layer metrics, each tied to the end-to-end metric it should move.

Every metric here is reported by every workload (BENCHMARK.json lists
them once); a workload that never calls a layer reports a measured 0
for it and leaves it out of its printed table.  Span metrics are the
mean inclusive time per call of the named span, optionally only calls
whose direct parent span is the given workload root; the rest are
counts, ratios and derived values the workloads fill in.
"""

from __future__ import annotations

from tracer import Tracer

US, MS, S = 1e6, 1e3, 1.0

#: (metric, unit, better, the end-to-end metric it should move, and where).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("serving.client.batch_us", "us", "lower", "serve.p50_ms, serve.batches_per_s"),
    ("serving.transport_us", "us", "lower", "serve.p50_ms, serve.batches_per_s"),
    ("serving.codec.encode_us", "us", "lower", "serve.p50_ms"),
    ("serving.codec.decode_us", "us", "lower", "serve.p50_ms"),
    ("serving.codec.response_bytes", "B", "lower", "serve.p50_ms"),
    ("serving.service.handle_batch_us", "us", "lower",
     "serve.p50_ms; watch.fresh_query_p50_ms"),
    ("serving.errors", "count", "lower", "failed_share on serve"),
    ("serving.shed", "count", "lower", "failed_share on serve"),
    ("archive.query.trusted_on_many_us", "us", "lower",
     "serve.p50_ms; watch.fresh_query_p50_ms"),
    ("archive.query.observations", "count", "lower", "serve.p50_ms"),
    ("archive.query.ever_shipped_us", "us", "lower", "serve.p50_ms"),
    ("archive.query.diff_us", "us", "lower", "serve.p50_ms"),
    ("archive.query.manifest_hit_rate", "share", "higher",
     "serve.p90_ms; watch.fresh_query_p50_ms"),
    ("archive.query.open_s", "s", "lower", "ordination.landmark_s"),
    ("archive.query.incidence_s", "s", "lower", "ordination.landmark_s"),
    ("archive.query.distance_matrix_s", "s", "lower", "ordination.figure1_s"),
    ("archive.binindex.in_force_us", "us", "lower", "serve.p50_ms"),
    ("archive.binindex.postings_for_us", "us", "lower", "serve.p50_ms"),
    ("archive.binindex.load_ms", "ms", "lower", "watch.fresh_query_p50_ms"),
    ("archive.binindex.persist_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.index.load_s", "s", "lower", "ordination.landmark_s"),
    ("archive.index.apply_delta_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.index.persist_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.index.bytes", "B", "lower",
     "watch.cycle_p50_ms, watch.write_bytes_per_snapshot"),
    ("archive.manifest.read_us", "us", "lower",
     "ordination.landmark_s; watch.fresh_query_p50_ms"),
    ("archive.manifest.reads", "count", "lower",
     "ordination.landmark_s; watch.fresh_query_p50_ms"),
    ("archive.manifest.write_us", "us", "lower", "watch.cycle_p50_ms"),
    ("archive.manifest.catalog_write_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.cas.put_us", "us", "lower", "watch.cycle_p50_ms"),
    ("archive.cas.puts", "count", "lower", "watch.cycle_p50_ms"),
    ("archive.cas.dedup_ratio", "share", "higher", "watch.cycle_p50_ms"),
    ("archive.journal.record_us", "us", "lower", "watch.cycle_p50_ms"),
    ("archive.journal.commit_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.ingest.add_snapshot_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.ingest.commit_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("archive.checkpoint.save_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("formats.parse_ms", "ms", "lower", "watch.cycle_p50_ms"),
    ("formats.tags", "count", "lower", "watch.cycle_p50_ms"),
    ("collection.watch.quarantined", "count", "lower", "failed_share on watch"),
    ("collection.watch.write_bytes_per_snapshot", "B", "lower",
     "watch.write_bytes_per_snapshot"),
    ("analysis.sparse.landmarks_s", "s", "lower", "ordination.landmark_s"),
    ("analysis.sparse.cross_distances_s", "s", "lower", "ordination.landmark_s"),
    ("analysis.mds.landmark_mds_s", "s", "lower", "ordination.landmark_s"),
    ("analysis.mds.landmark_iterations", "count", "lower", "ordination.landmark_s"),
    ("analysis.mds.landmark_stress1", "stress", "lower", "ordination.landmark_s"),
    ("analysis.mds.smacof_s", "s", "lower", "ordination.figure1_s"),
    ("analysis.mds.smacof_iterations", "count", "lower", "ordination.figure1_s"),
    ("analysis.incidence.jaccard_s", "s", "lower", "ordination.figure1_s"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced unit time"),
    ("trace.coverage_share", "share", "higher", "traced unit time in layer spans"),
    ("trace.untraced_share", "share", "lower", "traced unit time in no layer span"),
)

#: Span-derived metrics: metric → (span name, required parent span, scale).
SPAN_METRICS: dict[str, tuple[str, str | None, float]] = {
    "serving.client.batch_us": ("serving.client.batch", None, US),
    "serving.service.handle_batch_us": ("serving.service.handle_batch", None, US),
    "archive.query.trusted_on_many_us": ("archive.query.trusted_on_many", None, US),
    "archive.query.ever_shipped_us": ("archive.query.ever_shipped", None, US),
    "archive.query.diff_us": ("archive.query.diff", None, US),
    "archive.query.open_s": ("archive.query.open", None, S),
    "archive.query.incidence_s": ("archive.query.incidence", "ordination.landmark", S),
    "archive.query.distance_matrix_s": ("archive.query.distance_matrix", None, S),
    "archive.binindex.in_force_us": ("archive.binindex.in_force", None, US),
    "archive.binindex.postings_for_us": ("archive.binindex.postings_for", None, US),
    "archive.binindex.load_ms": ("archive.binindex.load", None, MS),
    "archive.binindex.persist_ms": ("archive.binindex.persist", None, MS),
    "archive.index.load_s": ("archive.index.load", None, S),
    "archive.index.apply_delta_ms": ("archive.index.apply_delta", None, MS),
    "archive.index.persist_ms": ("archive.index.persist", None, MS),
    "archive.manifest.read_us": ("archive.manifest.read", None, US),
    "archive.manifest.write_us": ("archive.manifest.write", None, US),
    "archive.manifest.catalog_write_ms": ("archive.manifest.catalog_write", None, MS),
    "archive.cas.put_us": ("archive.cas.put", None, US),
    "archive.journal.record_us": ("archive.journal.record", None, US),
    "archive.journal.commit_ms": ("archive.journal.commit", None, MS),
    "archive.ingest.add_snapshot_ms": ("archive.ingest.add_snapshot", None, MS),
    "archive.ingest.commit_ms": ("archive.ingest.commit", None, MS),
    "archive.checkpoint.save_ms": ("archive.checkpoint.save", None, MS),
    "formats.parse_ms": ("formats.parse", None, MS),
    "analysis.sparse.landmarks_s": ("analysis.sparse.maxmin_landmarks", None, S),
    "analysis.sparse.cross_distances_s": (
        "analysis.sparse.cross_distances", "ordination.landmark", S),
    "analysis.mds.landmark_mds_s": ("analysis.mds.landmark_mds", None, S),
    "analysis.mds.smacof_s": ("analysis.mds.smacof", "ordination.figure1", S),
    "analysis.incidence.jaccard_s": ("analysis.incidence.jaccard_distances", None, S),
}

#: Counter-derived metrics: metric → tracer counter name.
COUNTER_METRICS: dict[str, str] = {
    "archive.query.observations": "archive.query.observations",
    "archive.manifest.reads": "archive.manifest.reads",
    "archive.cas.puts": "archive.cas.puts",
    "formats.tags": "formats.tags",
}


def layer_metrics(tracer: Tracer, roots: tuple[str, ...], overhead: float):
    """Every span and counter metric, plus overhead and coverage.

    Returns ``(values, samples)``: samples holds the span count behind
    each span metric, so a reader sees how many calls a mean rests on.
    """
    values, samples = {}, {}
    for metric, (span, parent, scale) in SPAN_METRICS.items():
        durations = tracer.durations(span, parent=parent)
        values[metric] = sum(durations) / len(durations) * scale if durations else 0.0
        samples[metric] = len(durations)
    for metric, counter in COUNTER_METRICS.items():
        values[metric] = tracer.counters[counter]
    puts = tracer.counters["archive.cas.puts"]
    values["archive.cas.dedup_ratio"] = (
        tracer.counters["archive.cas.deduplicated"] / puts if puts else 0.0
    )
    root_s, covered_s = tracer.coverage(roots)
    coverage = covered_s / root_s if root_s else 0.0
    values["trace.overhead_ratio"] = overhead
    values["trace.coverage_share"] = coverage
    values["trace.untraced_share"] = 1.0 - coverage if root_s else 0.0
    return values, samples

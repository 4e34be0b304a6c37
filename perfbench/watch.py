"""watch: continuous ingestion, the write path.

Set-up synthesizes the paper corpus, publishes it as 11 watched origins
(the 10 providers plus the CT ``argon`` accepted-roots feed) holding
back the last ``HOLD_BACK`` tags of each, and runs one catch-up cycle
into a fresh archive.  Writes are durable (fsync on, the default users
run) throughout.

Each of the ``CYCLES`` measured cycles reveals one more tag per origin
and runs ``Watcher.run_cycle()``: codec parse → CAS put → manifest →
journal → catalog → index patch plus ``trust.bin`` re-encode.  Right
after each commit one long-lived in-process ``QueryService`` answers a
fixed, seeded 32-fingerprint probe batch, paying for the remap and the
cleared manifest cache that every commit forces on readers.

Checks: the final catalog hash and every ``index/`` file equal a
one-shot ingest of the same parsed tags (delta == rebuild), and
``verify_archive`` is clean.
"""

from __future__ import annotations

import os
import random
import time
from itertools import accumulate

from common import Result, digest, median, percentile, pss_mb, tree_bytes, wchar
from layers import layer_metrics
from tracer import Tracer

from repro.archive import Archive, ingest_snapshots, verify_archive
from repro.archive.io import set_fsync
from repro.archive.query import MANIFEST_CACHE_SIZE
from repro.collection.watch import Watcher, build_watch_world
from repro.serving import QueryService
from repro.simulation.corpus import generate_corpus

HOLD_BACK = 24
CYCLES = 24
PROBE_FINGERPRINTS = 32
ZIPF_EXPONENT = 1.1

DESCRIPTION = {
    "loop": f"closed, {CYCLES} sequential cycles each followed by one probe query",
    "connections": 0,
    "threads": 1,
    "flush": "fsync on (the default users run)",
}

LAYERS = (
    "formats.parse_ms", "formats.tags", "archive.cas.put_us", "archive.cas.puts",
    "archive.cas.dedup_ratio", "archive.manifest.write_us", "archive.journal.record_us",
    "archive.journal.commit_ms", "archive.manifest.catalog_write_ms",
    "archive.index.apply_delta_ms", "archive.index.persist_ms", "archive.binindex.persist_ms",
    "archive.index.bytes", "archive.ingest.add_snapshot_ms", "archive.ingest.commit_ms",
    "archive.checkpoint.save_ms", "collection.watch.quarantined",
    "collection.watch.write_bytes_per_snapshot", "serving.service.handle_batch_us",
    "archive.binindex.load_ms", "archive.query.trusted_on_many_us",
    "archive.query.observations", "archive.query.manifest_hit_rate",
    "archive.manifest.read_us", "archive.manifest.reads",
    "trace.overhead_ratio", "trace.coverage_share", "trace.untraced_share",
)

ROOTS = ("watch.cycle", "watch.fresh_query")


def _recording(origin, captured: list):
    """Keep every snapshot an origin parses, for the one-shot rebuild check.

    The class attribute is looked up on each call, so the tracer's
    wrapper around ``WatchedOrigin.parse`` still sees every parse.
    """

    def parse(tagged):
        snapshot = type(origin).parse(origin, tagged)
        captured.append(snapshot)
        return snapshot

    return parse


def _probe(index, seed: int) -> dict:
    rng = random.Random(f"watch/{seed}")
    fingerprints = sorted(index.postings)
    rng.shuffle(fingerprints)
    popularity = list(
        accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(fingerprints) + 1))
    )
    # Only dates every origin already covers, so each seed's probe resolves
    # one manifest per origin and does the same amount of work.
    since = max(index.timeline(p)[0].taken_at for p in index.providers)
    dates = sorted(
        {e.taken_at for p in index.providers for e in index.timeline(p) if e.taken_at >= since}
    )
    return {
        "requests": [
            {
                "op": "trusted_on",
                "fingerprints": rng.choices(
                    fingerprints, cum_weights=popularity, k=PROBE_FINGERPRINTS
                ),
                "when": rng.choice(dates).isoformat(),
            }
        ]
    }


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    result = Result()
    captured: list = []
    start = time.perf_counter()
    corpus = generate_corpus()
    world = build_watch_world(corpus.dataset, hold_back=HOLD_BACK)
    for origin in world.origins:
        origin.parse = _recording(origin, captured)
    archive = Archive(workdir / "watched", create=True)
    watcher = Watcher(archive, world.origins)
    catch_up = watcher.run_cycle()
    probe_service = QueryService(archive.root)
    probe = _probe(probe_service.query.index, seed)
    setup_s = time.perf_counter() - start
    phases = {"setup": setup_s}

    tracer = Tracer()
    tracer.hold(probe_service.query)
    cycle_s, query_s, traced_units, plain_units = [], [], [], []
    index_bytes, ingested, measured_snapshots, commits, quarantined, tags = [], 0, 0, 0, 0, 0
    written_before = wchar()
    for number in range(CYCLES):
        world.advance(1)
        traced = trace and number % 2 == 1
        with tracer.installed(traced):
            began = time.perf_counter()
            with tracer.span("watch.cycle"):
                cycle = watcher.run_cycle()
            committed = time.perf_counter()
            with tracer.span("watch.fresh_query"):
                answer = probe_service.handle_batch(probe)
            answered = time.perf_counter()
        (traced_units if traced else plain_units).append(answered - began)
        if not traced:
            cycle_s.append(committed - began)
            query_s.append(answered - committed)
            measured_snapshots += cycle.snapshots_ingested
        ingested += cycle.snapshots_ingested
        commits += cycle.snapshots_ingested > 0
        quarantined += sum(len(o.quarantined) for o in cycle.outcomes)
        tags += sum(len(o.ingested) + len(o.quarantined) for o in cycle.outcomes)
        index_bytes.append(tree_bytes(archive.root / "index"))
        fresh = answer["catalog_hash"] == archive.catalog_hash()
        errors = any("error" in slot for slot in answer["responses"])
        if not fresh or errors:
            result.failed += 1
            result.notes.append(f"cycle {number + 1}: probe fresh={fresh} errors={errors}")
    written_after = wchar()
    phases["cycles"] = time.perf_counter() - start - setup_s
    memory = pss_mb(os.getpid())
    result.attempted = tags + CYCLES  # every tag visited, plus one probe per cycle
    result.failed += quarantined

    # Output checks: delta == rebuild, and a clean verify.
    oneshot = Archive(workdir / "oneshot", create=True)
    previous = set_fsync(False)
    try:
        ingest_snapshots(oneshot, captured)
    finally:
        set_fsync(previous)
    index_names = sorted(p.name for p in (archive.root / "index").iterdir())
    identical = all(
        (archive.root / "index" / name).read_bytes()
        == (oneshot.root / "index" / name).read_bytes()
        for name in index_names
    )
    result.check(
        "catalog hash == one-shot ingest of the same tags",
        archive.catalog_hash() == oneshot.catalog_hash(),
    )
    result.check(f"index/ bytes == one-shot rebuild ({', '.join(index_names)})", identical)
    report = verify_archive(archive)
    result.check("verify_archive clean", report.ok)
    phases["checks"] = time.perf_counter() - start - sum(phases.values())
    result.notes.append("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    snapshots = catch_up.snapshots_ingested + ingested
    result.check(
        "every published tag committed exactly once",
        snapshots == len(captured) == sum(len(r.tags) for r in world.reveals),
    )
    result.notes.append(
        f"corpus: {snapshots} snapshots from {len(world.origins)} origins "
        f"({catch_up.snapshots_ingested} at catch-up) = "
        f"{snapshots / MANIFEST_CACHE_SIZE:.2f}x the {MANIFEST_CACHE_SIZE}-entry manifest LRU"
    )
    # The writer's pid lands in its lock file and journal transaction id
    # once per commit; discount those digits so the count repeats exactly.
    pid_bytes = 2 * commits * len(str(os.getpid()))
    written = (written_after - written_before - pid_bytes) if written_before is not None else None
    bytes_per_snapshot = written / ingested if written is not None else None

    measured_cycles = len(cycle_s)
    p50, p90 = percentile(cycle_s, 0.5) * 1e3, percentile(cycle_s, 0.9) * 1e3
    rate = measured_snapshots / sum(cycle_s)
    fresh_p50 = median(query_s) * 1e3
    result.end_to_end = {
        "setup_s": setup_s,
        "p50_ms": p50,
        "p90_ms": p90,
        "throughput_per_s": rate,
        "query_p50_ms": fresh_p50,
        "memory_mb": memory,
    }
    result.line("setup_s", setup_s, "s", 1)
    result.line("failed_share", result.failed / result.attempted, "share", result.attempted)
    result.line("watch.cycle_p50_ms", p50, "ms", measured_cycles)
    result.line("watch.cycle_p90_ms", p90, "ms", measured_cycles)
    result.line("watch.snapshots_per_s", rate, "1/s", measured_snapshots)
    result.line("watch.fresh_query_p50_ms", fresh_p50, "ms", len(query_s))
    result.line("watch.write_bytes_per_snapshot", bytes_per_snapshot, "B", ingested)
    result.line("watch.process_pss_mb", memory, "MB", 1)
    result.counts = {
        "catalog_hash": archive.catalog_hash(),
        "snapshots_ingested": ingested,
        "written_bytes": written,
        "index_bytes_final": index_bytes[-1],
        "index_bytes_digest": digest(index_bytes),
    }
    if trace:
        values, samples = layer_metrics(
            tracer, ROOTS, median(traced_units) / median(plain_units)
        )
        values.update(
            {
                "archive.index.bytes": sum(index_bytes) / len(index_bytes),
                "collection.watch.quarantined": quarantined,
                "collection.watch.write_bytes_per_snapshot": bytes_per_snapshot,
                "archive.query.manifest_hit_rate":
                    probe_service.query.cache_stats()["manifest"].hit_rate,
            }
        )
        samples["archive.index.bytes"] = len(index_bytes)
        samples["trace.overhead_ratio"] = len(traced_units)
        result.layers, result.layer_samples = values, samples
        result.tracer = tracer
        result.counts.update(
            manifest_reads=tracer.counters["archive.manifest.reads"],
            observations=tracer.counters["archive.query.observations"],
            puts=tracer.counters["archive.cas.puts"],
            deduplicated=tracer.counters["archive.cas.deduplicated"],
        )
    return result

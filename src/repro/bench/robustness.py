"""The ``robustness`` suite — crash/recovery numbers behind ``BENCH_robustness.json``.

The crash-consistency machinery must be cheap when nothing goes wrong
and effective when everything does; this suite measures both:

- **overhead**: cold ingest three ways — the baseline writer (no lock,
  no journal), the default journaled+locked writer, and the fully
  durable writer (fsync on).  The gate is journal overhead ≤ 10% over
  baseline, measured with fsync off on both sides so the comparison
  isolates the journal, not the disk; the per-round overheads are
  recorded beside it so a small difference reads as the noise it is.
- **kill_matrix**: the seeded :class:`~repro.archive.chaos.ChaosPlan`
  matrix over a small corpus — crash an ingest at every write site,
  run ``repair``, and require a clean ``verify`` plus a re-ingest that
  converges to the byte-identical undamaged catalog.  Also times the
  repairs themselves.
- **repair_damaged**: the full (or smoke) corpus with realistic damage
  — bit-flipped objects, a deleted manifest, stray temp files — timed
  through one ``repair`` pass, then served in degraded mode and
  finally restored by re-ingest.
- **fleet**: the serving/pool kill matrix — the same chaos
  discipline one layer up, at the *process fleet*.  A supervised
  daemon rides out a worker kill storm (availability + back to full
  strength + restarts accounted), a drained SIGTERM loses zero
  accepted in-flight requests, an over-capacity worker sheds with
  ``503 + Retry-After`` inside a latency ceiling (and the shed client
  retries to success), and a scenario sweep whose chunk worker is
  killed mid-block re-dispatches to a byte-identical result.

The correctness gates (``all_converged``, ``verify_ok``, ``restored``,
and every ``fleet.gates`` entry) hold in every mode.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from pathlib import Path

from repro.archive import (
    Archive,
    ArchiveQuery,
    ChaosPlan,
    SimulatedCrash,
    crash_at,
    ingest_dataset,
    record_sites,
    repair_archive,
    set_fsync,
    verify_archive,
)
from repro.bench.runner import Floor, Suite, smoke_dataset, timed
from repro.serving import (
    ServingClient,
    ServingConfig,
    ServingDaemon,
    ServingError,
    ServingOverloadError,
    SupervisorPolicy,
)
from repro.store.history import Dataset

#: The kill matrix runs on a deliberately tiny sub-corpus in every
#: mode: each cell costs a full crash → repair → verify → re-ingest
#: cycle, and site *coverage* does not improve with corpus size.
MATRIX_SNAPSHOTS_PER_PROVIDER = 3
#: Interleaved baseline/journaled rounds (best-of) for the overhead gate.
OVERHEAD_ROUNDS = 3
#: How many stored objects the damage scenario bit-flips.
DAMAGE_OBJECTS = 4
#: Stray temp files scattered by the damage scenario.
DAMAGE_TMP_FILES = 3
#: Shed responses must come back within this ceiling — shedding that
#: takes as long as serving defeats its purpose.
SHED_LATENCY_CEILING_S = 0.10


def _bench_overhead(root: Path, dataset: Dataset) -> dict:
    counter = iter(range(1_000_000))

    def cold_ingest(**writer_options):
        target = Archive(root / f"overhead-{next(counter)}", create=True)
        return ingest_dataset(target, dataset, **writer_options)

    previous = set_fsync(False)  # isolate the journal from the disk
    try:
        # Interleave baseline/journaled rounds (best-of minimum): the
        # gate is a ratio of two noisy wall-clock numbers, and timing
        # all of one side before the other lets machine-load drift
        # between the phases masquerade as journal overhead.
        rounds = []
        for _ in range(OVERHEAD_ROUNDS):
            b, _ = timed(lambda: cold_ingest(lock=False, journal=False))
            j, _ = timed(cold_ingest)
            rounds.append((b, j))
    finally:
        set_fsync(True)
    try:
        durable_s, _ = timed(cold_ingest)
    finally:
        set_fsync(previous)
    baseline_s = min(b for b, _ in rounds)
    journaled_s = min(j for _, j in rounds)
    return {
        "baseline_s": baseline_s,
        "journaled_s": journaled_s,
        "durable_s": durable_s,
        "journal_overhead_pct": (journaled_s / baseline_s - 1) * 100,
        "round_overhead_pct": [(j / b - 1) * 100 for b, j in rounds],
    }


def _bench_kill_matrix(root: Path, dataset: Dataset, *, smoke: bool) -> dict:
    reference = Archive(root / "matrix-ref", create=True)
    ingest_dataset(reference, dataset)
    undamaged_hash = reference.catalog_hash()

    probe = Archive(root / "matrix-probe", create=True)
    sites = record_sites(lambda: ingest_dataset(probe, dataset))
    points = ChaosPlan(seed="bench-robustness").matrix(sites)
    if smoke:
        # One cell per distinct site keeps the smoke run inside tier-1.
        first_per_site: dict[str, tuple] = {}
        for point, style in points:
            first_per_site.setdefault(point.site, (point, style))
        points = list(first_per_site.values())

    converged = 0
    repair_times: list[float] = []
    failures: list[str] = []
    for k, (point, style) in enumerate(points):
        archive = Archive(root / f"matrix-{k}", create=True)
        with crash_at(point.site, hit=point.hit, style=style):
            try:
                ingest_dataset(archive, dataset)
                failures.append(f"{point.site}#{point.hit}/{style}: crash never fired")
                continue
            except SimulatedCrash:
                pass
        repair_s, _ = timed(lambda: repair_archive(archive, force_unlock=True))
        repair_times.append(repair_s)
        report = verify_archive(archive)
        if not report.ok or report.stale_tmp:
            failures.append(f"{point.site}#{point.hit}/{style}: {report.summary()}")
            continue
        ingest_dataset(archive, dataset)
        if archive.catalog_hash() != undamaged_hash:
            failures.append(f"{point.site}#{point.hit}/{style}: catalog hash diverged")
            continue
        converged += 1
    return {
        "sites": len(set(sites)),
        "site_firings": len(sites),
        "cells": len(points),
        "converged": converged,
        "all_converged": converged == len(points),
        "failures": failures,
        "repair_total_s": sum(repair_times),
        "repair_max_s": max(repair_times, default=0.0),
    }


def _bench_repair_damaged(root: Path, dataset: Dataset) -> dict:
    archive = Archive(root / "damaged", create=True)
    ingest_dataset(archive, dataset)
    undamaged_hash = archive.catalog_hash()
    total = dataset.total_snapshots()

    # Bit-flip the *least shared* stored objects (deterministically):
    # damaging a root every snapshot ships would quarantine the whole
    # catalog, leaving degraded serving nothing to demonstrate.
    postings = ArchiveQuery(archive).index.postings
    by_rarity = sorted((len(ps), fp) for fp, ps in postings.items())
    flipped = [fp for _, fp in by_rarity[:DAMAGE_OBJECTS]]
    for fingerprint in flipped:
        path = archive.objects.path_for(fingerprint)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
    # ... delete one manifest out from under the catalog ...
    provider, manifest_id, manifest_path = archive.manifest_files()[0]
    manifest_path.unlink()
    # ... and scatter crashed-writer temp debris.
    for k in range(DAMAGE_TMP_FILES):
        (archive.root / f"debris-{k}.tmp").write_bytes(b"half-written")

    repair_s, repair_report = timed(lambda: repair_archive(archive))
    verification = verify_archive(archive)

    degraded = ArchiveQuery(archive, allow_degraded=True)
    served = degraded.dataset().total_snapshots()
    reported = len(degraded.quarantined)

    reingest_s, _ = timed(lambda: ingest_dataset(archive, dataset))
    restored = (
        archive.catalog_hash() == undamaged_hash
        and len(ArchiveQuery(archive).quarantined) == 0
    )
    return {
        "objects_flipped": len(flipped),
        "manifest_deleted": f"{provider}/{manifest_id}",
        "tmp_scattered": DAMAGE_TMP_FILES,
        "repair_s": repair_s,
        "tmp_swept": repair_report.tmp_swept,
        "objects_quarantined": repair_report.objects_quarantined,
        "snapshots_quarantined": repair_report.snapshots_quarantined,
        "verify_ok": verification.ok and not verification.stale_tmp,
        "total_snapshots": total,
        "served_snapshots": served,
        "served_plus_quarantined_is_total": served
        + repair_report.snapshots_quarantined
        == total,
        "reported_quarantined": reported,
        "reingest_s": reingest_s,
        "restored": restored,
    }


# -- the fleet kill matrix ----------------------------------------------


def _first_fingerprint(root: Path) -> str:
    return sorted(ArchiveQuery(root).index.postings)[0]


def _bench_kill_storm(root: Path, *, smoke: bool) -> dict:
    """SIGKILL workers under live traffic; supervision must heal."""
    config = ServingConfig(
        root=root,
        workers=2,
        supervise=True,
        policy=SupervisorPolicy(
            backoff_base_s=0.01,
            poll_interval_s=0.005,
            restart_budget=100,  # the storm is the point; don't trip
            budget_window_s=60.0,
        ),
    )
    payload = [{"op": "ever_shipped", "fingerprint": _first_fingerprint(root)}]
    kills = 2 if smoke else 6
    requests = 40 if smoke else 240
    stride = max(requests // kills, 1)
    ok = failed = killed = 0
    daemon = ServingDaemon(config)
    host, port = daemon.start()
    try:
        with ServingClient(host, port) as client:
            for k in range(requests):
                if killed < kills and k % stride == stride // 2:
                    pids = daemon.pids
                    if pids:
                        try:
                            os.kill(pids[killed % len(pids)], signal.SIGKILL)
                            killed += 1
                        except ProcessLookupError:
                            pass
                try:
                    client.batch(payload, retries=8, backoff_s=0.02)
                    ok += 1
                except ServingError:
                    failed += 1
        deadline = time.monotonic() + 10.0
        health = daemon.fleet_health()
        while time.monotonic() < deadline:
            health = daemon.fleet_health()
            if health["live"] == health["target"] and not health["degraded"]:
                break
            time.sleep(0.01)
        restarts = daemon.supervisor.restarts_total
    finally:
        daemon.stop()
    return {
        "workers": config.workers,
        "kills": killed,
        "requests": requests,
        "ok": ok,
        "failed": failed,
        "availability": ok / requests if requests else 1.0,
        "restarts": restarts,
        "live": health["live"],
        "target": health["target"],
        "degraded": health["degraded"],
        "recovered_full_strength": health["live"] == health["target"],
    }


def _bench_drain(root: Path, *, smoke: bool) -> dict:
    """SIGTERM with requests in flight; every accepted request answers."""
    latency = 0.10 if smoke else 0.25
    config = ServingConfig(
        root=root,
        workers=1,
        simulated_latency_s=latency,
        drain_timeout=max(5.0, latency * 10),
    )
    payload = [{"op": "ever_shipped", "fingerprint": _first_fingerprint(root)}]
    in_flight_target = 3 if smoke else 8
    outcomes: list[str] = []
    lock = threading.Lock()
    daemon = ServingDaemon(config)
    host, port = daemon.start()

    def drive() -> None:
        try:
            with ServingClient(host, port) as client:
                client.batch(payload)
            result = "ok"
        except ServingError:
            result = "failed"
        with lock:
            outcomes.append(result)

    threads = [threading.Thread(target=drive) for _ in range(in_flight_target)]
    observed = 0
    try:
        for thread in threads:
            thread.start()
        # Only drain once every request is CONFIRMED accepted (the
        # worker's own /healthz reports them in flight) — otherwise the
        # gate would measure racing connects, not drain semantics.
        with ServingClient(host, port) as probe:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                observed = probe.health()["in_flight"]
                if observed >= in_flight_target:
                    break
                time.sleep(0.005)
    finally:
        daemon.stop()  # the drain under test
    for thread in threads:
        thread.join(timeout=10.0)
    completed = outcomes.count("ok")
    return {
        "in_flight_target": in_flight_target,
        "observed_in_flight": observed,
        "completed": completed,
        "dropped": in_flight_target - completed,
        "force_killed": daemon.supervisor.force_killed,
        "drain_s": daemon.supervisor.drain_seconds,
        "drain_timeout_s": config.drain_timeout,
        "zero_dropped": completed == in_flight_target
        and daemon.supervisor.force_killed == 0,
    }


def _bench_shed(root: Path, *, smoke: bool) -> dict:
    """Over the admission limit the worker sheds fast, with Retry-After."""
    latency = 0.20 if smoke else 0.40
    config = ServingConfig(
        root=root,
        workers=1,
        max_in_flight=1,
        simulated_latency_s=latency,
        retry_after=0.05,
    )
    payload = [{"op": "ever_shipped", "fingerprint": _first_fingerprint(root)}]
    probes = 4 if smoke else 16
    daemon = ServingDaemon(config)
    host, port = daemon.start()
    blocker_outcome: list[str] = []

    def blocker() -> None:
        try:
            with ServingClient(host, port) as client:
                client.batch(payload)
            blocker_outcome.append("ok")
        except ServingError:
            blocker_outcome.append("failed")

    shed_latencies: list[float] = []
    retry_afters: list[float | None] = []
    unexpected_ok = 0
    retried_succeeded = False
    thread = threading.Thread(target=blocker)
    try:
        thread.start()
        with ServingClient(host, port) as probe:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if probe.health()["in_flight"] >= 1:
                    break
                time.sleep(0.002)
        with ServingClient(host, port) as client:
            for _ in range(probes):
                start = time.perf_counter()
                try:
                    client.batch(payload)
                    unexpected_ok += 1
                except ServingOverloadError as exc:
                    shed_latencies.append(time.perf_counter() - start)
                    retry_afters.append(exc.retry_after)
            # The typed retry loop must ride the shed out: once the
            # blocker finishes, a Retry-After-paced replay succeeds.
            try:
                client.batch(payload, retries=50)
                retried_succeeded = True
            except ServingError:
                retried_succeeded = False
        thread.join(timeout=10.0)
    finally:
        daemon.stop()
    shed_p99 = _fleet_percentile(shed_latencies, 0.99)
    return {
        "probes": probes,
        "sheds": len(shed_latencies),
        "unexpected_ok": unexpected_ok,
        "retry_after_s": config.retry_after,
        "retry_after_all_present": bool(retry_afters)
        and all(value is not None for value in retry_afters),
        "shed_p99_s": shed_p99,
        "ceiling_s": SHED_LATENCY_CEILING_S,
        "within_ceiling": bool(shed_latencies) and shed_p99 <= SHED_LATENCY_CEILING_S,
        "blocker_completed": blocker_outcome == ["ok"],
        "retried_succeeded": retried_succeeded,
    }


def _fleet_percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _bench_redispatch(root: Path) -> dict:
    """Kill a chunk worker mid-sweep; re-dispatch must stay byte-identical.

    This is a correctness gate, not a timing: the grid stays small in
    every mode (the smoke-shape Symantec scenario), because what is
    measured is identity under re-dispatch, which does not improve with
    cell count.
    """
    from repro.bench.scenario import _bench_scenario
    from repro.scenario.engine import PoolChaos, ScenarioEngine
    from repro.scenario.report import run_to_json
    from repro.simulation import default_corpus

    corpus = default_corpus()
    scenario = _bench_scenario(True)
    archive = Archive(root / "redispatch-archive", create=True)
    ingest_dataset(archive, corpus.dataset, providers=scenario.providers)

    serial_run = ScenarioEngine(
        archive, corpus=corpus, workers=1, use_cache=False
    ).run(scenario)

    kill_cell = f"{scenario.providers[0]}@{scenario.dates[0].isoformat()}"
    marker_dir = root / "redispatch-markers"
    marker_dir.mkdir(parents=True, exist_ok=True)
    killed_engine = ScenarioEngine(
        archive,
        corpus=corpus,
        workers=4,
        use_cache=False,
        chaos=PoolChaos(kill_cells=(kill_cell,), marker_dir=str(marker_dir)),
    )
    killed_run = killed_engine.run(scenario)
    return {
        "cells": len(serial_run.cells),
        "workers": 4,
        "kill_cell": kill_cell,
        "redispatches": killed_run.stats.redispatches,
        "identical": run_to_json(serial_run) == run_to_json(killed_run),
    }


def _bench_fleet(root: Path, dataset: Dataset, *, smoke: bool) -> dict:
    """The serving/pool kill matrix: storm, drain, shed, re-dispatch."""
    serving_root = root / "fleet-archive"
    archive = Archive(serving_root, create=True)
    # The serving fleet runs on the matrix sub-corpus: fleet gates are
    # about process lifecycles, not query throughput.
    ingest_dataset(archive, dataset)
    kill_storm = _bench_kill_storm(serving_root, smoke=smoke)
    drain = _bench_drain(serving_root, smoke=smoke)
    shed = _bench_shed(serving_root, smoke=smoke)
    redispatch = _bench_redispatch(root)
    gates = {
        "kill_storm_zero_failed": kill_storm["failed"] == 0,
        "kill_storm_recovered": kill_storm["recovered_full_strength"],
        "kill_storm_restarts_cover_kills": kill_storm["restarts"]
        >= kill_storm["kills"]
        > 0,
        "drain_zero_dropped": drain["zero_dropped"],
        "drain_within_deadline": (drain["drain_s"] or 0.0)
        <= drain["drain_timeout_s"],
        "shed_retry_after_present": shed["retry_after_all_present"],
        "shed_within_ceiling": shed["within_ceiling"],
        "shed_retried_succeeded": shed["retried_succeeded"],
        "redispatch_identical": redispatch["identical"],
        "redispatch_nonzero": redispatch["redispatches"] > 0,
    }
    gates["all_met"] = all(gates.values())
    return {
        "kill_storm": kill_storm,
        "drain": drain,
        "shed": shed,
        "redispatch": redispatch,
        "gates": gates,
    }


def run(dataset: Dataset, smoke: bool) -> dict:
    if smoke:
        dataset = smoke_dataset(dataset)
    matrix_dataset = smoke_dataset(dataset, snapshots=MATRIX_SNAPSHOTS_PER_PROVIDER)
    with tempfile.TemporaryDirectory(prefix="repro-robustness-bench-") as tmp:
        root = Path(tmp)
        return {
            "snapshots": dataset.total_snapshots(),
            "providers": len(dataset.providers),
            "overhead": _bench_overhead(root, dataset),
            "kill_matrix": _bench_kill_matrix(root, matrix_dataset, smoke=smoke),
            "repair_damaged": _bench_repair_damaged(root, dataset),
            "fleet": _bench_fleet(root, matrix_dataset, smoke=smoke),
        }


SUITE = Suite(
    name="robustness",
    output="BENCH_robustness.json",
    run=run,
    floors=(
        Floor("kill_matrix.all_converged", always=True),
        Floor("repair_damaged.verify_ok", always=True),
        Floor("repair_damaged.restored", always=True),
        Floor("repair_damaged.served_plus_quarantined_is_total", always=True),
        Floor("repair_damaged.tmp_swept", ">=", DAMAGE_TMP_FILES, always=True),
        Floor("fleet.gates.all_met", always=True),
        Floor("overhead.journal_overhead_pct", "<=", 10.0),
    ),
)

"""The continuous-ingestion watch loop: checkpoints, breakers, chaos.

The headline test is the kill matrix: crash the watcher at every
first/middle/last occurrence of every watch-path write site (checkpoint
saves, intent records, incremental index replaces, the watch hooks
themselves), resume with a fresh watcher, and require the final archive
— every file, hashed — to be byte-identical to an uninterrupted run,
with a clean integrity verify on top.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.archive import (
    Archive,
    ArchiveQuery,
    CheckpointStore,
    ChaosPlan,
    Cursor,
    SimulatedCrash,
    crash_at,
    record_sites,
    verify_archive,
)
from repro.bench.runner import smoke_dataset
from repro.collection import FaultPlan, FlakyOrigin
from repro.collection.breaker import BreakerPolicy, CircuitBreaker
from repro.collection.retry import RetryPolicy, SimulatedClock
from repro.collection.watch import (
    DEADLINE,
    DEGRADED,
    IDLE,
    OK,
    OPEN,
    WatchPolicy,
    Watcher,
    build_watch_world,
)
from repro.ct import ACCEPTED_ROOTS_PATH, accepted_roots_snapshot, simulated_root_feeds
from repro.errors import CollectionError


pytestmark = pytest.mark.usefixtures("no_fsync")  # throwaway archives


@pytest.fixture(scope="module")
def small_dataset(dataset):
    """The bench smoke sub-corpus: 2 providers, 6 snapshots each."""
    return smoke_dataset(dataset)


def _fast_policy(**overrides) -> WatchPolicy:
    defaults = dict(
        cycle_interval=10.0,
        origin_budget=30.0,
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
        breaker=BreakerPolicy(failure_threshold=2, cooldown=20.0),
    )
    defaults.update(overrides)
    return WatchPolicy(**defaults)


def _run_scripted_watch(root: Path, dataset) -> Watcher:
    """The canonical session: three cycles, the world advancing between."""
    world = build_watch_world(dataset, hold_back=2)
    watcher = Watcher(
        Archive(root, create=True),
        world.origins,
        clock=SimulatedClock(),
        force_unlock=True,
    )
    for number in range(3):
        if number:
            world.advance()
        watcher.run_cycle()
    return watcher


def _archive_state(root: Path) -> dict[str, str]:
    """Hash of every durable file — journal/lock/tmp debris excluded."""
    state = {}
    for path in sorted(Path(root).rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        if rel.startswith(("journal/", "quarantine/")):
            continue
        if rel.endswith(".tmp") or rel.endswith(".writer.lock"):
            continue
        state[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return state


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        from datetime import date

        store = CheckpointStore(tmp_path)
        assert store.load() == {}
        cursors = {
            "nss": Cursor(released=date(2020, 1, 1), tag="3.49+20200101"),
            "alpine": Cursor(released=date(2019, 6, 1), tag="3.10+20190601"),
        }
        store.save(cursors)
        assert CheckpointStore(tmp_path).load() == cursors

    def test_intent_lifecycle(self, tmp_path):
        from datetime import date

        store = CheckpointStore(tmp_path)
        assert store.read_intent() is None
        cursors = {"nss": Cursor(released=date(2020, 1, 1), tag="3.49+20200101")}
        store.write_intent(cursors)
        assert store.read_intent() == cursors
        store.clear_intent()
        assert store.read_intent() is None
        store.clear_intent()  # idempotent

    def test_damaged_checkpoint_reads_empty_and_flags(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.checkpoints_path.parent.mkdir(parents=True, exist_ok=True)
        store.checkpoints_path.write_bytes(b'{"schema": 1, "cursors": [tor')
        assert store.load() == {}
        assert store.damaged is True


class TestCircuitBreaker:
    def test_opens_at_threshold_and_probes_after_cooldown(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=2, cooldown=20.0))
        assert breaker.allow(0.0)
        breaker.record_failure(1.0)
        assert breaker.state == "closed"
        breaker.record_failure(2.0)
        assert breaker.state == "open"
        assert not breaker.allow(10.0)  # cooldown not elapsed
        assert breaker.allow(22.0)  # admits the half-open probe
        assert breaker.state == "half-open"
        breaker.record_success(22.5)
        assert breaker.state == "closed"
        assert breaker.failures == 0

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=1, cooldown=5.0))
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(6.0)
        assert breaker.state == "open"
        assert breaker.opened_at == 6.0
        assert not breaker.allow(10.0)  # fresh cooldown from the re-open
        transitions = [(t.from_state, t.to_state) for t in breaker.transitions]
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown=-1.0)


class TestCTRootFeed:
    def test_simulated_feeds_grow_monotonically(self, small_dataset):
        feeds = simulated_root_feeds(small_dataset, logs=("argon",), revisions=4)
        (feed,) = feeds
        assert feed.provider_key == "ct-argon"
        assert len(feed) == 4
        sizes = []
        previous: set[str] = set()
        for tagged in feed:
            snapshot = accepted_roots_snapshot(feed.provider_key, tagged)
            fingerprints = {e.fingerprint for e in snapshot.entries}
            assert previous <= fingerprints  # accepted roots only grow
            previous = fingerprints
            sizes.append(len(fingerprints))
        assert sizes == sorted(sizes)

    def test_missing_artifact_is_collection_error(self, small_dataset):
        (feed,) = simulated_root_feeds(small_dataset, logs=("argon",), revisions=1)
        tagged = feed.revisions[0]
        broken = type(tagged)(tag=tagged.tag, released=tagged.released, tree={})
        with pytest.raises(CollectionError, match=ACCEPTED_ROOTS_PATH):
            accepted_roots_snapshot(feed.provider_key, broken)


class TestWatcherHappyPath:
    def test_cycles_ingest_only_the_delta(self, small_dataset, tmp_path):
        watcher = _run_scripted_watch(tmp_path / "arch", small_dataset)
        report = watcher.report
        cycles = report.cycles
        assert len(cycles) == 3
        origins = report.origins()
        assert origins == sorted([*small_dataset.providers, "ct-argon"])
        # Cycle 1 catches up to everything revealed; later cycles see
        # exactly the one new tag per origin the world released.
        assert cycles[0].snapshots_ingested > len(origins)
        assert cycles[1].snapshots_ingested == len(origins)
        assert cycles[2].snapshots_ingested == len(origins)
        for origin in origins:
            assert report.statuses(origin) == [OK, OK, OK]
        assert verify_archive(watcher.archive).ok
        # Cursors landed on each origin's last revealed tag.
        cursors = watcher.checkpoints.load()
        assert set(cursors) == set(origins)
        assert watcher.checkpoints.read_intent() is None

    def test_idle_cycle_ingests_nothing(self, small_dataset, tmp_path):
        watcher = _run_scripted_watch(tmp_path / "arch", small_dataset)
        before = watcher.archive.catalog_hash()
        cycle = watcher.run_cycle()  # world did not advance
        assert cycle.snapshots_ingested == 0
        assert {o.status for o in cycle.outcomes} == {IDLE}
        assert watcher.archive.catalog_hash() == before

    def test_watch_equals_batch_ingest(self, small_dataset, tmp_path):
        """Incremental cycles converge to the same catalog as one big ingest."""
        from repro.archive import ingest_dataset

        watcher = _run_scripted_watch(tmp_path / "watched", small_dataset)
        world = build_watch_world(small_dataset, hold_back=2)
        world.advance(2)
        batch = Archive(tmp_path / "batch", create=True)
        batch_watcher = Watcher(batch, world.origins, clock=SimulatedClock())
        batch_watcher.run_cycle()
        assert watcher.archive.catalog_hash() == batch.catalog_hash()
        # And the incremental index answers queries like a rebuilt one.
        query = ArchiveQuery(watcher.archive)
        assert query.index.catalog_hash == watcher.archive.catalog_hash()
        assert ingest_dataset is not None

    def test_index_dir_holds_only_trust_bin(self, small_dataset, tmp_path):
        """Ingest, a delta-maintained watch commit and repair all persist
        the index as ``trust.bin`` and nothing else."""
        from repro.archive import ingest_dataset, repair_archive

        archive = Archive(tmp_path / "arch", create=True)

        def index_files() -> list[str]:
            return sorted(path.name for path in (archive.root / "index").iterdir())

        ingest_dataset(archive, small_dataset, providers=small_dataset.providers[:1])
        assert index_files() == ["trust.bin"]
        world = build_watch_world(small_dataset, hold_back=1)
        assert Watcher(archive, world.origins, clock=SimulatedClock()).run_cycle().snapshots_ingested
        assert index_files() == ["trust.bin"]
        repair_archive(archive)
        assert index_files() == ["trust.bin"]

    def test_report_json_round_trips(self, small_dataset, tmp_path):
        report = _run_scripted_watch(tmp_path / "arch", small_dataset).report
        payload = json.loads(report.to_json())
        assert payload["total_ingested"] == report.total_ingested()
        assert len(payload["cycles"]) == 3
        first = payload["cycles"][0]
        assert set(first) == {
            "number",
            "started_at",
            "duration",
            "snapshots_ingested",
            "outcomes",
            "breaker_transitions",
        }


class TestBudgetsAndBreakers:
    def test_origin_budget_defers_tags(self, small_dataset, tmp_path):
        """A zero-second budget defers everything without failing the cycle."""
        world = build_watch_world(small_dataset, ct_logs=(), hold_back=0)
        watcher = Watcher(
            Archive(tmp_path / "arch", create=True),
            world.origins,
            policy=_fast_policy(origin_budget=0.0),
            clock=SimulatedClock(now=1.0),
        )
        cycle = watcher.run_cycle()
        assert cycle.snapshots_ingested == 0
        for outcome in cycle.outcomes:
            assert outcome.status == DEADLINE
            assert outcome.deferred > 0
        # Checkpoints never advanced, so a generous cycle catches up fully.
        watcher.policy = _fast_policy(origin_budget=1e9)
        recovery = watcher.run_cycle()
        assert recovery.snapshots_ingested == sum(
            len(reveal.tags) for reveal in world.reveals
        )

    def test_breaker_opens_cools_down_and_recovers(self, small_dataset, tmp_path):
        """The validated deterministic outage script, end to end.

        FlakyOrigin(failures=5) with per-tag persistent access counters
        and retry max_attempts=2 gives: two cycles of failed retries
        (opens at threshold 2), one skipped cycle inside the 20 s
        cooldown, then a half-open probe whose second attempt succeeds
        (access #6) — closing the breaker and ingesting the tag.
        """

        def run_session(name: str) -> Watcher:
            clock = SimulatedClock()
            plan = FaultPlan(
                seed="s", rate=1.0, faults=(FlakyOrigin(failures=5),), clock=clock
            )
            world = build_watch_world(
                small_dataset,
                providers=[small_dataset.providers[0]],
                ct_logs=(),
                hold_back=3,
                fault_plan=plan,
            )
            watcher = Watcher(
                Archive(tmp_path / name, create=True),
                world.origins,
                policy=_fast_policy(),
                clock=clock,
            )
            watcher.run(4)
            return watcher

        watcher = run_session("arch-a")
        origin = watcher.origins[0].name
        assert watcher.report.statuses(origin) == [DEGRADED, DEGRADED, OPEN, DEGRADED]
        # Cycle 4 recovered the probe tag before the next fresh tag failed.
        assert watcher.report.cycles[3].outcomes[0].ingested
        moves = [(t.from_state, t.to_state) for t in watcher.report.transitions()]
        assert moves == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        # Same seed, same clock: the replay is identical, tag for tag.
        replay = run_session("arch-b")
        assert replay.report.to_json() == watcher.report.to_json()

    def test_open_breaker_still_commits_healthy_origins(
        self, small_dataset, tmp_path
    ):
        """Graceful degradation: one dead origin never blocks the rest."""
        clock = SimulatedClock()
        dead = small_dataset.providers[0]
        plan = FaultPlan(
            seed="s", rate=1.0, faults=(FlakyOrigin(failures=10_000),), clock=clock
        )
        world = build_watch_world(small_dataset, ct_logs=(), hold_back=1)
        # Instrument only the first provider; the second stays healthy.
        for watched in world.origins:
            if watched.name == dead:
                watched.origin = plan.instrument(watched.origin, dead)
        watcher = Watcher(
            Archive(tmp_path / "arch", create=True),
            world.origins,
            policy=_fast_policy(),
            clock=clock,
        )
        report = watcher.run(3)
        healthy = [name for name in report.origins() if name != dead]
        assert report.statuses(dead)[0] == DEGRADED
        assert OPEN in report.statuses(dead)
        for name in healthy:
            assert report.statuses(name)[0] == OK
        assert report.total_ingested() > 0
        assert verify_archive(watcher.archive).ok
        assert set(watcher.checkpoints.load()) == set(healthy)


class TestKillMatrix:
    """Crash anywhere in the watch path; resume converges byte-for-byte."""

    def test_resume_converges_at_every_watch_site(self, small_dataset, tmp_path):
        reference_root = tmp_path / "reference"
        _run_scripted_watch(reference_root, small_dataset)
        reference = _archive_state(reference_root)
        assert reference  # the scripted session produced an archive

        trace = record_sites(
            lambda: _run_scripted_watch(tmp_path / "trace", small_dataset)
        )
        watch_prefixes = ("watch", "checkpoint", "checkpoint-intent", "index")
        cells = [
            (point, style)
            for point, style in ChaosPlan(seed="watch-kill").matrix(trace)
            if point.site.split(":")[0] in watch_prefixes
        ]
        # Every new write site is represented in the matrix.
        assert {point.site.split(":")[0] for point, _ in cells} == set(watch_prefixes)
        assert len(cells) >= 20

        for cell, (point, style) in enumerate(cells):
            root = tmp_path / f"cell-{cell}"
            with pytest.raises(SimulatedCrash):
                with crash_at(point.site, hit=point.hit, style=style):
                    _run_scripted_watch(root, small_dataset)

            # Resume: fresh watcher (auto-repair), world fully revealed.
            world = build_watch_world(small_dataset, hold_back=2)
            world.advance_fully()
            resumed = Watcher(
                Archive(root),
                world.origins,
                clock=SimulatedClock(),
                force_unlock=True,  # the "crashed" pid is this test process
            )
            resumed.run(2)

            assert _archive_state(root) == reference, (
                f"divergence after {style} crash at {point.site} hit {point.hit}"
            )
            assert verify_archive(Archive(root)).ok, (
                f"dirty verify after {style} crash at {point.site} hit {point.hit}"
            )

"""The serving layer: binary index codec, query daemon, staleness remap.

Four layers under test, bottom-up:

- the ``trust.bin`` codec (:mod:`repro.archive.binindex`): deterministic
  encoding, lossless round-trip, lazy mmap decoding, damage detection
  (torn header, truncation, payload bit flips) and the
  quarantine-and-rebuild path through ``archive repair``;
- query equivalence: an :class:`ArchiveQuery` over the mmap-backed
  index must answer every surface — ``trusted_on_many`` on every
  archived date, ``ever_shipped`` for every fingerprint, in-force
  resolution for every provider × date, ``snapshot_at``, ``diff`` —
  element-wise identically to an engine over the oracle index (a
  manifest scan that depends on no persisted format), and
  ``trusted_on_many`` must equal a ``trusted_on`` loop;
- concurrent readers vs. the watch loop: a reader holding the mmap'd
  index while a commit lands keeps serving its old snapshot
  consistently (the replaced inode stays alive under the map), while
  ``refresh_on_stale=True`` engines remap to the new catalog and
  pinned engines raise :class:`ArchiveStaleError` — no torn reads;
- the pre-forked daemon end to end: readiness, batched queries against
  the in-process answers, per-slot errors, metrics, staleness remap
  under a live worker (commit → next batch answers from the new
  catalog, same process), and clean SIGTERM shutdown.
"""

from __future__ import annotations

import json
import os
from datetime import date

import pytest

from repro.archive import (
    Archive,
    ArchiveQuery,
    Posting,
    TimelineEntry,
    build_index,
    check_binary_index,
    ingest_dataset,
    load_binary_index,
    persist_binary_index,
    read_binary_index,
    repair_archive,
    verify_archive,
)
from repro.archive.binindex import BINARY_FILE, BinaryIndex, binary_index_path
from repro.archive.index import INDEX_DIR
from repro.archive.repair import QUARANTINE_DIR
from repro.bench.runner import smoke_dataset
from repro.cli.main import main
from repro.collection.faults import SimulatedClock
from repro.collection.watch import Watcher, build_watch_world
from repro.errors import ArchiveError, ArchiveStaleError
from repro.serving import (
    QueryService,
    RequestError,
    ServingClient,
    ServingConfig,
    ServingDaemon,
    ServingRequestError,
)
from repro.store.purposes import TrustPurpose
from tests import oracle
from tests.conftest import fsync_off, scan_engine


pytestmark = pytest.mark.usefixtures("no_fsync")


@pytest.fixture(scope="module")
def small_dataset(dataset):
    return smoke_dataset(dataset)


@pytest.fixture(scope="module")
def served_archive(small_dataset, tmp_path_factory):
    """A small ingested archive (ingest persists ``trust.bin``)."""
    root = tmp_path_factory.mktemp("serving") / "archive"
    with fsync_off():
        ingest_dataset(Archive(root, create=True), small_dataset)
    return root


def _probes(query: ArchiveQuery):
    fingerprints = sorted(query.index.postings)
    dates = sorted(
        {
            entry.taken_at
            for provider in query.index.providers
            for entry in query.index.timeline(provider)
        }
    )
    return fingerprints, dates


# -- the codec ------------------------------------------------------------


class TestBinaryCodec:
    def test_round_trip_is_lossless(self, served_archive):
        archive = Archive(served_archive)
        binary = read_binary_index(archive, archive.catalog_hash())
        assert binary is not None
        assert oracle.decoded(binary) == oracle.build_index(archive)
        binary.close()

    def test_encoding_is_deterministic(self, served_archive):
        archive = Archive(served_archive)
        assert build_index(archive).encode() == build_index(archive).encode()
        assert build_index(archive).encode() == oracle.index_bytes(archive)

    def test_open_validates_header_only(self, served_archive):
        """Open checks the header and the payload checksum; it decodes
        no record."""
        binary = BinaryIndex(binary_index_path(Archive(served_archive)))
        # Nothing decoded yet: the lazy caches are untouched.
        assert binary._provider_table is None
        assert binary._timeline_cache == {}
        assert binary.verify_payload()
        binary.close()

    def test_lazy_lookup_decodes_one_posting_list(self, served_archive):
        archive = Archive(served_archive)
        binary = read_binary_index(archive, archive.catalog_hash())
        index = oracle.build_index(archive)
        fingerprint = sorted(index.postings)[0]
        postings = binary.postings_for(fingerprint)
        assert postings == index.postings[fingerprint]
        assert binary.postings_for("ff" * 32) == ()
        assert binary.postings_for("not-hex") == ()
        binary.close()

    def test_stale_catalog_hash_reads_as_absent(self, served_archive):
        archive = Archive(served_archive)
        assert read_binary_index(archive, "0" * 64) is None

    def test_missing_file_is_rebuilt_identically(self, served_archive, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(served_archive, clone)
        archive = Archive(clone)
        path = binary_index_path(archive)
        original = path.read_bytes()
        path.unlink()
        binary = load_binary_index(archive)
        assert path.read_bytes() == original  # deterministic rebuild
        binary.close()

    def test_loader_requires_a_catalog(self, tmp_path):
        archive = Archive(tmp_path / "empty", create=True)
        with pytest.raises(ArchiveError, match="no catalog"):
            load_binary_index(archive)


class TestBinaryDamage:
    @pytest.fixture()
    def damaged_clone(self, served_archive, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(served_archive, clone)
        return Archive(clone)

    def test_intact_index_reports_no_damage(self, served_archive):
        assert check_binary_index(Archive(served_archive)) is None

    def test_missing_index_is_not_damage(self, damaged_clone):
        binary_index_path(damaged_clone).unlink()
        assert check_binary_index(damaged_clone) is None

    def test_torn_header_is_damage(self, damaged_clone):
        path = binary_index_path(damaged_clone)
        path.write_bytes(path.read_bytes()[:40])
        name, detail = check_binary_index(damaged_clone)
        assert name == f"{INDEX_DIR}/{BINARY_FILE}"
        assert "torn" in detail

    def test_truncated_payload_is_damage(self, damaged_clone):
        path = binary_index_path(damaged_clone)
        path.write_bytes(path.read_bytes()[:-20])
        _, detail = check_binary_index(damaged_clone)
        assert "torn write" in detail

    def test_flipped_payload_bit_is_damage(self, damaged_clone):
        path = binary_index_path(damaged_clone)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        _, detail = check_binary_index(damaged_clone)
        assert "checksum mismatch" in detail

    def test_verify_reports_and_repair_rebuilds(self, damaged_clone):
        path = binary_index_path(damaged_clone)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x55
        path.write_bytes(bytes(data))

        report = verify_archive(damaged_clone)
        assert not report.ok
        assert report.damaged_index == [check_binary_index(damaged_clone)]
        assert any("damaged index" in line for line in report.problem_lines())

        healed = repair_archive(damaged_clone)
        assert healed.index_healed
        # The damaged file is parked for forensics, never half-trusted.
        quarantined = (
            damaged_clone.root / QUARANTINE_DIR / INDEX_DIR / f"{BINARY_FILE}.corrupt"
        )
        assert quarantined.exists()
        assert verify_archive(damaged_clone).ok
        assert check_binary_index(damaged_clone) is None
        # Idempotent: a second repair finds nothing to heal.
        assert not repair_archive(damaged_clone).index_healed


# -- the on-demand JSON view ------------------------------------------------


def test_index_dump_is_stable_and_parses_back(served_archive, capsys):
    dumps = []
    for _ in range(2):
        assert main(["archive", "index-dump", str(served_archive)]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1]
    text = dumps[0]
    document = json.loads(text)
    assert set(document) == {"catalog_hash", "postings", "timelines"}
    assert text == json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    parsed = oracle.ArchiveIndex(
        catalog_hash=document["catalog_hash"],
        postings={
            fp: tuple(
                Posting(provider=p, version=v, taken_at=date.fromisoformat(d))
                for p, v, d in rows
            )
            for fp, rows in document["postings"].items()
        },
        timelines={
            provider: tuple(
                TimelineEntry(
                    taken_at=date.fromisoformat(d), version=v, manifest_id=m, entries=n
                )
                for d, v, m, n in rows
            )
            for provider, rows in document["timelines"].items()
        },
    )
    assert parsed == oracle.build_index(Archive(served_archive))


# -- query equivalence -----------------------------------------------------


class TestBinaryQueryEquivalence:
    """``trust.bin`` answers exactly as a manifest scan (the oracle index)."""

    @pytest.fixture(scope="class")
    def engines(self, served_archive):
        return scan_engine(served_archive), ArchiveQuery(served_archive)

    def test_loader_is_the_binary_index(self, engines):
        _, binary_engine = engines
        assert isinstance(binary_engine.index, BinaryIndex)

    def test_in_force_identical(self, engines):
        scan, binary_engine = engines
        _, dates = _probes(scan)
        for provider in scan.providers:
            for when in dates:
                assert scan.index.in_force(
                    provider, when
                ) == binary_engine.index.in_force(provider, when)

    def test_trusted_on_identical(self, engines):
        scan, binary_engine = engines
        fingerprints, dates = _probes(scan)
        for when in dates:
            assert scan.trusted_on_many(
                fingerprints, when
            ) == binary_engine.trusted_on_many(fingerprints, when)

    def test_ever_shipped_identical(self, engines):
        scan, binary_engine = engines
        fingerprints, _ = _probes(scan)
        for fingerprint in fingerprints:
            assert scan.ever_shipped(fingerprint) == binary_engine.ever_shipped(
                fingerprint
            )

    @pytest.mark.parametrize(
        "mangle",
        [str.upper, lambda fp: fp[:2] + " " + fp[2:], lambda fp: fp[:-2]],
        ids=["uppercase", "spaced", "short"],
    )
    def test_non_canonical_fingerprint_is_absent(self, engines, mangle):
        scan, binary_engine = engines
        fingerprints, dates = _probes(scan)
        probe = mangle(fingerprints[0])
        assert scan.ever_shipped(probe) == binary_engine.ever_shipped(probe) == ()
        assert scan.trusted_on_many([probe], dates[-1]) == binary_engine.trusted_on_many(
            [probe], dates[-1]
        )

    def test_snapshot_at_identical(self, engines):
        scan, binary_engine = engines
        _, dates = _probes(scan)
        for provider in scan.providers:
            for when in (dates[0], dates[-1]):
                ours = binary_engine.snapshot_at(provider, when)
                theirs = scan.snapshot_at(provider, when)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert ours.fingerprints() == theirs.fingerprints()

    def test_diff_identical(self, engines):
        scan, binary_engine = engines
        providers = scan.providers
        _, dates = _probes(scan)
        ours = binary_engine.diff(providers[0], providers[1], when=dates[-1])
        theirs = scan.diff(providers[0], providers[1], when=dates[-1])
        assert ours == theirs

    def test_timelines_and_providers_identical(self, engines):
        scan, binary_engine = engines
        assert scan.providers == binary_engine.providers
        for provider in scan.providers:
            assert scan.timeline(provider) == binary_engine.timeline(provider)


def test_trusted_on_many_equals_looped_trusted_on(served_archive):
    engine = ArchiveQuery(served_archive)
    fingerprints, dates = _probes(engine)
    for when in (dates[0], dates[len(dates) // 2], dates[-1]):
        for purpose in (TrustPurpose.SERVER_AUTH, None):
            batched = engine.trusted_on_many(fingerprints, when, purpose=purpose)
            looped = [
                engine.trusted_on(fp, when, purpose=purpose) for fp in fingerprints
            ]
            assert batched == looped


# -- concurrent readers vs. the watch loop ---------------------------------


class TestReaderVsWatchLoop:
    def _watch_world(self, small_dataset, root):
        world = build_watch_world(small_dataset, hold_back=1)
        watcher = Watcher(
            Archive(root, create=True), world.origins, clock=SimulatedClock()
        )
        watcher.run_cycle()
        return world, watcher

    def test_held_mmap_keeps_serving_the_old_snapshot(self, small_dataset, tmp_path):
        root = tmp_path / "watched"
        world, watcher = self._watch_world(small_dataset, root)
        archive = Archive(root)

        held = load_binary_index(archive)
        before = oracle.decoded(held)
        old_hash = held.catalog_hash

        world.advance()
        watcher.run_cycle()  # commits a new catalog + rewrites trust.bin

        # The file under the final name changed…
        current = load_binary_index(archive)
        assert current.catalog_hash != old_hash
        # …but the held mapping still reads the *old inode*, completely
        # and consistently: same catalog hash, same decoded content.
        assert held.catalog_hash == old_hash
        assert oracle.decoded(held) == before
        assert held.verify_payload()
        held.close()
        current.close()

    def test_refresh_on_stale_remaps_to_the_new_catalog(self, small_dataset, tmp_path):
        root = tmp_path / "watched"
        world, watcher = self._watch_world(small_dataset, root)

        engine = ArchiveQuery(root, refresh_on_stale=True)
        old_hash = engine.catalog_hash
        fingerprints, dates = _probes(engine)
        engine.trusted_on_many(fingerprints[:4], dates[-1])

        world.advance()
        watcher.run_cycle()

        engine.trusted_on_many(fingerprints[:4], dates[-1])  # triggers the remap
        assert engine.catalog_hash != old_hash
        assert engine.catalog_hash == Archive(root).catalog_hash()
        # The remapped engine answers identically to a fresh one.
        fresh = ArchiveQuery(root)
        assert engine.trusted_on_many(fingerprints, dates[-1]) == fresh.trusted_on_many(
            fingerprints, dates[-1]
        )

    def test_pinned_engine_raises_instead_of_serving_stale(
        self, small_dataset, tmp_path
    ):
        root = tmp_path / "watched"
        world, watcher = self._watch_world(small_dataset, root)
        engine = ArchiveQuery(root)
        fingerprints, dates = _probes(engine)

        world.advance()
        watcher.run_cycle()

        with pytest.raises(ArchiveStaleError):
            engine.trusted_on(fingerprints[0], dates[-1])


# -- the query service (transport-free) ------------------------------------


class TestQueryService:
    @pytest.fixture(scope="class")
    def service(self, served_archive):
        return QueryService(served_archive)

    def test_malformed_payload_raises(self, service):
        with pytest.raises(RequestError):
            service.handle_batch({"not-requests": []})
        with pytest.raises(RequestError):
            service.handle_batch([])

    def test_batch_answers_slot_by_slot(self, service, served_archive):
        engine = ArchiveQuery(served_archive)
        fingerprints, dates = _probes(engine)
        when = dates[-1]
        document = service.handle_batch(
            {
                "requests": [
                    {
                        "op": "trusted_on",
                        "fingerprints": fingerprints[:3],
                        "when": when.isoformat(),
                    },
                    {"op": "ever_shipped", "fingerprint": fingerprints[0]},
                    {
                        "op": "snapshot_at",
                        "provider": engine.providers[0],
                        "when": when.isoformat(),
                    },
                    {"op": "bogus"},
                    {"op": "trusted_on", "fingerprints": fingerprints[:1], "when": "nope"},
                ]
            }
        )
        assert document["catalog_hash"] == service.catalog_hash
        trusted, shipped, release, bogus, bad_date = document["responses"]

        looped = engine.trusted_on_many(fingerprints[:3], when)
        assert trusted["observations"] == [
            [
                {
                    "provider": o.provider,
                    "version": o.version,
                    "taken_at": o.taken_at.isoformat(),
                    "present": o.present,
                    "level": o.level.value if o.level else None,
                }
                for o in per_fp
            ]
            for per_fp in looped
        ]
        assert len(shipped["postings"]) == len(engine.ever_shipped(fingerprints[0]))
        entry = engine.index.in_force(engine.providers[0], when)
        assert release["release"]["version"] == entry.version
        assert release["release"]["manifest_id"] == entry.manifest_id
        assert "unknown op" in bogus["error"]
        assert "when" in bad_date["error"]

    def test_unknown_provider_is_a_slot_error(self, service):
        document = service.handle_batch(
            {
                "requests": [
                    {"op": "snapshot_at", "provider": "nope", "when": "2020-01-01"}
                ]
            }
        )
        assert "nope" in document["responses"][0]["error"]

    def test_snapshot_predating_history_is_null(self, service):
        provider = service.query.providers[0]
        document = service.handle_batch(
            {
                "requests": [
                    {"op": "snapshot_at", "provider": provider, "when": "1970-01-01"}
                ]
            }
        )
        assert document["responses"][0] == {"release": None}

    def test_batch_limit_is_enforced(self, served_archive):
        service = QueryService(served_archive, batch_limit=2)
        document = service.handle_batch(
            {
                "requests": [
                    {
                        "op": "trusted_on",
                        "fingerprints": ["aa" * 32] * 3,
                        "when": "2020-01-01",
                    }
                ]
            }
        )
        assert "exceeds limit" in document["responses"][0]["error"]

    def test_purpose_vocabulary(self, service, served_archive):
        engine = ArchiveQuery(served_archive)
        fingerprints, dates = _probes(engine)
        request = {
            "op": "trusted_on",
            "fingerprints": fingerprints[:1],
            "when": dates[-1].isoformat(),
        }
        any_doc = service.handle_batch({"requests": [{**request, "purpose": "any"}]})
        assert all(
            o["level"] is None
            for o in any_doc["responses"][0]["observations"][0]
        )
        bad = service.handle_batch({"requests": [{**request, "purpose": "sideways"}]})
        assert "unknown purpose" in bad["responses"][0]["error"]


# -- the daemon end to end -------------------------------------------------


class TestServingDaemon:
    @pytest.fixture(scope="class")
    def daemon(self, served_archive):
        daemon = ServingDaemon(ServingConfig(root=served_archive, workers=2))
        daemon.start()
        yield daemon
        daemon.stop()

    @pytest.fixture()
    def client(self, daemon):
        with ServingClient(daemon.host, daemon.port) as client:
            yield client

    def test_health_and_identity(self, daemon, client, served_archive):
        health = client.health()
        assert health["ok"]
        assert health["catalog_hash"] == Archive(served_archive).catalog_hash()
        assert int(health["pid"]) in daemon.pids

    def test_batch_matches_in_process_answers(self, client, served_archive):
        engine = ArchiveQuery(served_archive)
        fingerprints, dates = _probes(engine)
        when = dates[-1]

        observations = client.trusted_on(fingerprints[:8], when)
        looped = engine.trusted_on_many(fingerprints[:8], when)
        assert [
            [(o["provider"], o["version"], o["present"]) for o in per_fp]
            for per_fp in observations
        ] == [
            [(o.provider, o.version, o.present) for o in per_fp] for per_fp in looped
        ]

        postings = client.ever_shipped(fingerprints[0])
        assert len(postings) == len(engine.ever_shipped(fingerprints[0]))

        release = client.snapshot_at(engine.providers[0], when)
        assert release["version"] == engine.index.in_force(engine.providers[0], when).version

        diff = client.diff(engine.providers[0], engine.providers[1], when=when)
        ours = engine.diff(engine.providers[0], engine.providers[1], when=when)
        assert diff["jaccard_distance"] == pytest.approx(ours.jaccard_distance)
        assert sorted(diff["only_a"]) == sorted(ours.only_a)

    def test_slot_errors_and_transport_errors(self, client):
        with pytest.raises(ServingRequestError, match="unknown op"):
            client._single({"op": "bogus"})
        document = client.batch([{"op": "ever_shipped"}])
        assert "fingerprint" in document["responses"][0]["error"]

    def test_metrics_endpoint_dumps_the_registry(self, client):
        client.ever_shipped("aa" * 32)  # ensure at least one counted request
        dump = client.metrics()
        names = {metric["name"] for metric in dump["metrics"]}
        assert "repro_serving_requests_total" in names
        assert "repro_serving_worker_requests_total" in names

    def test_unknown_route_is_404(self, daemon):
        from http.client import HTTPConnection

        conn = HTTPConnection(daemon.host, daemon.port, timeout=5.0)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()

    def test_non_json_body_is_400(self, daemon):
        from http.client import HTTPConnection

        conn = HTTPConnection(daemon.host, daemon.port, timeout=5.0)
        conn.request("POST", "/v1/query", body=b"not json")
        response = conn.getresponse()
        assert response.status == 400
        assert "JSON" in json.loads(response.read())["error"]
        conn.close()


class TestDaemonLifecycle:
    def test_remap_under_live_daemon(self, small_dataset, tmp_path):
        """A watch commit under a running daemon remaps, never restarts."""
        root = tmp_path / "watched"
        world = build_watch_world(small_dataset, hold_back=1)
        watcher = Watcher(
            Archive(root, create=True), world.origins, clock=SimulatedClock()
        )
        watcher.run_cycle()

        daemon = ServingDaemon(ServingConfig(root=root, workers=1))
        host, port = daemon.start()
        try:
            with ServingClient(host, port) as client:
                engine = ArchiveQuery(root)
                fingerprints, dates = _probes(engine)
                first = client.batch(
                    [
                        {
                            "op": "trusted_on",
                            "fingerprints": fingerprints[:4],
                            "when": dates[-1].isoformat(),
                        }
                    ]
                )
                old_pid = client.health()["pid"]

                world.advance()
                watcher.run_cycle()  # the commit the worker must absorb
                new_hash = Archive(root).catalog_hash()
                assert first["catalog_hash"] != new_hash

                second = client.batch(
                    [
                        {
                            "op": "trusted_on",
                            "fingerprints": fingerprints[:4],
                            "when": dates[-1].isoformat(),
                        }
                    ]
                )
                assert second["catalog_hash"] == new_hash  # remapped…
                assert client.health()["pid"] == old_pid  # …same process
        finally:
            daemon.stop()

    def test_stop_terminates_every_worker(self, served_archive):
        daemon = ServingDaemon(ServingConfig(root=served_archive, workers=2))
        daemon.start()
        pids = list(daemon.pids)
        assert len(pids) == 2
        daemon.stop()
        assert daemon.pids == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_startup_failure_reaps_workers(self, tmp_path):
        empty = Archive(tmp_path / "empty", create=True)
        daemon = ServingDaemon(ServingConfig(root=empty.root, workers=1))
        with pytest.raises(ArchiveError, match="exited during startup"):
            daemon.start()
        assert daemon.pids == []

    def test_context_manager_round_trip(self, served_archive):
        with ServingDaemon(ServingConfig(root=served_archive, workers=1)) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                assert client.health()["ok"]
        assert daemon.pids == []


def test_cli_serve_check(served_archive, capsys):
    from repro.cli.main import main

    assert main(["serve", str(served_archive), "--check", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "health check ok" in out
    assert "catalog hash" in out

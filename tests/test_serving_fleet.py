"""The self-healing fleet: supervision, drain, shedding, typed retries.

PR 9's serving-robustness surface, tested bottom-up on real processes:

- :class:`FleetState` — the parent-written, worker-read shared mmap
  page behind ``/healthz``'s ``fleet`` document;
- supervision — a SIGKILLed worker is re-forked (new pid, same slot),
  ``/healthz`` reflects the restart, and a crash *storm* trips the
  slot's restart budget into a visible degraded interval that heals
  once the budget window passes;
- graceful drain — SIGTERM while requests are in flight answers every
  accepted request before the workers exit; nothing is force-killed;
- load shedding — over the in-flight admission limit a worker answers
  ``503 + Retry-After`` (and still leaves the keep-alive connection
  parseable), and the per-request deadline budget fails slots typed
  instead of hanging the batch;
- the client's failure typing — a recycled keep-alive connection is
  replayed exactly once, a *fresh* connection failing the same way is
  an outage, and ``batch(retries=N)`` rides out a worker restart.

Everything here except the :class:`FleetState` unit tests kills real
processes, so those classes carry the ``chaos`` marker.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.archive import Archive, ArchiveQuery, ingest_dataset
from repro.bench.runner import smoke_dataset
from repro.errors import ArchiveError
from repro.serving import (
    FleetState,
    QueryService,
    ServingClient,
    ServingConfig,
    ServingDaemon,
    ServingError,
    ServingOverloadError,
    SupervisorPolicy,
)
from tests.conftest import fsync_off

#: A restart discipline tuned for tests: heal in milliseconds, never
#: trip on the handful of kills a test injects.
FAST_POLICY = SupervisorPolicy(
    backoff_base_s=0.01,
    backoff_max_s=0.05,
    restart_budget=50,
    budget_window_s=60.0,
    stable_after_s=0.5,
    poll_interval_s=0.005,
)


pytestmark = pytest.mark.usefixtures("no_fsync")


@pytest.fixture(scope="module")
def served_archive(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet") / "archive"
    with fsync_off():
        ingest_dataset(Archive(root, create=True), smoke_dataset(dataset))
    return root


@pytest.fixture(scope="module")
def probe(served_archive):
    """One (fingerprints, when) pair every request in this module uses."""
    query = ArchiveQuery(served_archive)
    fingerprints = sorted(query.index.postings)[:4]
    when = max(
        entry.taken_at
        for provider in query.index.providers
        for entry in query.index.timeline(provider)
    )
    return fingerprints, when


def _batch_payload(probe) -> list[dict]:
    fingerprints, when = probe
    return [
        {"op": "trusted_on", "fingerprints": fingerprints, "when": when.isoformat()}
    ]


def _wait_for(predicate, *, timeout: float, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- the shared fleet-state page -------------------------------------------


class TestFleetState:
    def test_update_snapshot_round_trip(self):
        state = FleetState.create()
        try:
            state.update(target=3, live=2, restarts=5, degraded=1, draining=1)
            snapshot = state.snapshot()
            assert snapshot == {
                "draining": True,
                "degraded": True,
                "target": 3,
                "live": 2,
                "restarts": 5,
            }
            assert isinstance(snapshot["draining"], bool)
            assert isinstance(snapshot["degraded"], bool)
            # Partial updates leave the other fields alone.
            state.update(degraded=0)
            assert state.snapshot()["degraded"] is False
            assert state.snapshot()["live"] == 2
        finally:
            state.close()

    def test_unknown_field_rejected(self):
        state = FleetState.create()
        try:
            with pytest.raises(ValueError, match="unknown fleet-state"):
                state.update(happiness=1)
        finally:
            state.close()


# -- supervision: worker death and crash storms ----------------------------


@pytest.mark.chaos
class TestSupervisedFleet:
    def test_crashed_worker_is_replaced_and_healthz_reflects_it(
        self, served_archive, probe
    ):
        config = ServingConfig(
            root=served_archive, workers=2, supervise=True, policy=FAST_POLICY
        )
        with ServingDaemon(config) as daemon:
            before = set(daemon.pids)
            assert len(before) == 2
            victim = daemon.pids[0]
            os.kill(victim, signal.SIGKILL)

            assert _wait_for(
                lambda: daemon.fleet_health()["live"] == 2
                and daemon.fleet_health()["restarts"] >= 1,
                timeout=5.0,
            ), daemon.fleet_health()
            after = set(daemon.pids)
            assert victim not in after
            assert len(after) == 2

            # The healed fleet serves, and /healthz carries the incident
            # record every worker can see (restarts > 0, not degraded).
            with ServingClient(daemon.host, daemon.port) as client:
                health = client.health()
                assert health["ok"]
                assert health["fleet"]["restarts"] >= 1
                assert health["fleet"]["degraded"] is False
                assert health["fleet"]["live"] == 2
                assert client.batch(_batch_payload(probe))["responses"]

    def test_crash_storm_trips_degraded_then_heals(self, served_archive):
        policy = SupervisorPolicy(
            backoff_base_s=0.005,
            backoff_max_s=0.01,
            restart_budget=2,
            budget_window_s=0.5,
            stable_after_s=10.0,
            poll_interval_s=0.005,
        )
        config = ServingConfig(
            root=served_archive, workers=1, supervise=True, policy=policy
        )
        with ServingDaemon(config) as daemon:
            # Storm: keep killing whatever respawns until the budget
            # (2 deaths inside the 0.5s window) trips the slot.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                health = daemon.fleet_health()
                if health["degraded"]:
                    break
                for pid in daemon.pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.01)
            tripped = daemon.fleet_health()
            assert tripped["degraded"] is True, tripped
            assert tripped["live"] < tripped["target"]

            # The degraded interval ends on its own: the window passes,
            # the slot half-opens, and the respawn sticks once nobody
            # is killing it anymore.
            assert _wait_for(
                lambda: daemon.fleet_health()["degraded"] is False
                and daemon.fleet_health()["live"] == 1,
                timeout=5.0,
            ), daemon.fleet_health()

    def test_startup_death_still_raises_under_supervision(self, tmp_path):
        # A worker dying during *startup* is a configuration problem
        # (empty archive), never a crash to heal into a fork storm.
        empty = Archive(tmp_path / "empty", create=True)
        config = ServingConfig(
            root=empty.root, workers=1, supervise=True, policy=FAST_POLICY
        )
        daemon = ServingDaemon(config)
        with pytest.raises(ArchiveError, match="exited during startup"):
            daemon.start()
        assert daemon.pids == []


# -- graceful drain --------------------------------------------------------


@pytest.mark.chaos
class TestGracefulDrain:
    def test_no_accepted_request_is_dropped_across_sigterm(
        self, served_archive, probe
    ):
        """stop() while requests are mid-flight answers every one."""
        config = ServingConfig(
            root=served_archive, workers=1, simulated_latency_s=0.25
        )
        daemon = ServingDaemon(config)
        host, port = daemon.start()
        payload = _batch_payload(probe)
        outcomes: list[str] = []
        lock = threading.Lock()

        def one_request() -> None:
            try:
                with ServingClient(host, port, timeout=30.0) as client:
                    document = client.batch(payload)
                ok = bool(document.get("responses"))
            except ServingError:
                ok = False
            with lock:
                outcomes.append("ok" if ok else "failed")

        threads = [threading.Thread(target=one_request) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            # Confirm the requests are genuinely in flight (healthz is
            # not admission-limited) before pulling the trigger.
            with ServingClient(host, port) as watcher:
                assert _wait_for(
                    lambda: watcher.health()["in_flight"] >= 3, timeout=5.0
                )
        finally:
            daemon.stop()  # SIGTERM → drain → reap
        for thread in threads:
            thread.join(timeout=10.0)

        assert outcomes.count("ok") == 3, outcomes
        assert daemon.supervisor.force_killed == 0
        health = daemon.fleet_health()
        assert health["draining"] is True
        assert health["live"] == 0
        assert daemon.supervisor.drain_seconds is not None


# -- load shedding and deadline budgets ------------------------------------


@pytest.mark.chaos
class TestShedAndDeadline:
    def test_over_capacity_sheds_typed_503_and_retry_succeeds(
        self, served_archive, probe
    ):
        config = ServingConfig(
            root=served_archive,
            workers=1,
            max_in_flight=1,
            simulated_latency_s=0.5,
            retry_after=0.07,
        )
        payload = _batch_payload(probe)
        with ServingDaemon(config) as daemon:
            blocker_done = threading.Event()

            def blocker() -> None:
                with ServingClient(daemon.host, daemon.port, timeout=30.0) as client:
                    client.batch(payload)
                blocker_done.set()

            thread = threading.Thread(target=blocker)
            thread.start()
            try:
                with ServingClient(daemon.host, daemon.port) as client:
                    assert _wait_for(
                        lambda: client.health()["in_flight"] >= 1, timeout=5.0
                    )
                    # The slot is occupied: this request is shed, typed,
                    # with the server's Retry-After parsed out.
                    with pytest.raises(ServingOverloadError) as excinfo:
                        client.batch(payload)
                    assert excinfo.value.retry_after == pytest.approx(0.07)
                    # The shed left the keep-alive connection parseable:
                    # the SAME client retries to completion once capacity
                    # frees up, waiting the server-advertised interval.
                    document = client.batch(payload, retries=40)
                    assert document["responses"]
                    dump = client.metrics()
                    shed = next(
                        family
                        for family in dump["metrics"]
                        if family["name"] == "repro_serving_shed_total"
                    )
                    assert sum(s["value"] for s in shed["series"]) >= 1
            finally:
                thread.join(timeout=10.0)
            assert blocker_done.is_set()

    def test_deadline_budget_fails_slots_typed(self, served_archive, probe):
        service = QueryService(served_archive)
        payload = {"requests": _batch_payload(probe) * 2}
        # A zero budget is exhausted before the first slot: every slot
        # answers a typed error instead of the batch hanging.
        document = service.handle_batch(payload, budget_s=0.0)
        assert [slot for slot in document["responses"]] == [
            {"error": "deadline budget exhausted"},
            {"error": "deadline budget exhausted"},
        ]
        # No budget (the default): the same payload answers fully.
        full = service.handle_batch(payload)
        assert all("error" not in slot for slot in full["responses"])

    def test_daemon_wires_request_deadline_through(self, served_archive, probe):
        config = ServingConfig(
            root=served_archive, workers=1, request_deadline=1e-9
        )
        with ServingDaemon(config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                document = client.batch(_batch_payload(probe) * 3)
                assert all(
                    "deadline" in slot["error"] for slot in document["responses"]
                )


# -- the client's failure typing -------------------------------------------


@pytest.mark.chaos
class TestClientReconnect:
    def test_recycled_connection_replayed_exactly_once(self, served_archive, probe):
        """A keep-alive connection whose worker died is not an error."""
        config = ServingConfig(
            root=served_archive, workers=1, supervise=True, policy=FAST_POLICY
        )
        with ServingDaemon(config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                old_pid = client.health()["pid"]  # connection now recycled
                os.kill(old_pid, signal.SIGKILL)
                assert _wait_for(
                    lambda: daemon.fleet_health()["live"] == 1
                    and daemon.pids
                    and daemon.pids[0] != old_pid,
                    timeout=5.0,
                )
                # The stale socket surfaces as a reset on next use; the
                # client reconnects and replays, transparently.
                health = client.health()
                assert health["ok"]
                assert health["pid"] != old_pid

    def test_fresh_connection_reset_is_an_outage(self):
        """The one-shot replay is only for *recycled* connections."""
        listener = socket.create_server(("127.0.0.1", 0), backlog=4)
        listener.settimeout(0.05)  # accept() must wake to see the stop flag
        host, port = listener.getsockname()[:2]
        accepted: list[int] = []
        stop = threading.Event()

        def slam_the_door() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                accepted.append(1)
                conn.close()  # before any response bytes: BadStatusLine

        thread = threading.Thread(target=slam_the_door, daemon=True)
        thread.start()
        try:
            client = ServingClient(host, port, timeout=5.0)
            with pytest.raises(ServingError, match="dropped the connection"):
                client.health()
            # One connect, no replay: a fresh connection dying is a real
            # failure, not a stale keep-alive to paper over.
            assert len(accepted) == 1
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()

    def test_batch_retries_ride_out_a_worker_restart(self, served_archive, probe):
        config = ServingConfig(
            root=served_archive, workers=1, supervise=True, policy=FAST_POLICY
        )
        payload = _batch_payload(probe)
        with ServingDaemon(config) as daemon:
            with ServingClient(daemon.host, daemon.port) as client:
                client.batch(payload)  # recycle a connection first
                os.kill(daemon.pids[0], signal.SIGKILL)
                # No waiting: the bounded retry loop absorbs the window
                # where the slot is dead or still re-forking.
                document = client.batch(payload, retries=10, backoff_s=0.05)
                assert document["responses"]
            assert daemon.fleet_health()["restarts"] >= 1


@pytest.mark.chaos
def test_cli_serve_check_accepts_fleet_flags(served_archive, capsys):
    from repro.cli.main import main

    assert (
        main(
            [
                "serve",
                str(served_archive),
                "--check",
                "--workers", "1",
                "--supervise",
                "--max-in-flight", "4",
                "--request-deadline", "2.5",
                "--drain-timeout", "1.0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "health check ok" in out
    assert "supervised" in out

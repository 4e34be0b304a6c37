"""The batched multi-worker trust-query daemon (stdlib only).

``repro-roots serve`` runs this: a parent process binds one listening
socket, pre-forks N workers, and each worker serves HTTP/1.1 over the
*shared* socket — the kernel load-balances ``accept`` across workers.
Every worker holds a :class:`~repro.serving.service.QueryService` over
the mmap-able binary index, so N workers share the index *pages*
(one ``trust.bin`` mapped N times) instead of N decoded copies,
and cold start per worker is O(header read).

Endpoints (JSON in, JSON out):

- ``POST /v1/query`` — a batch payload for
  :meth:`QueryService.handle_batch`.  Over the in-flight admission
  limit the worker **sheds**: ``503`` with a ``Retry-After`` header
  instead of queueing unboundedly.
- ``GET /healthz`` — ``{"ok", "worker", "pid", "catalog_hash",
  "draining", "in_flight", "fleet"}``; what the parent polls for
  readiness, load generators use to observe remaps, and monitoring
  reads for fleet health (``fleet`` mirrors the parent-written
  :class:`~repro.serving.supervisor.FleetState`).
- ``GET /metrics`` — the worker's :mod:`repro.obs` registry snapshot.

Staleness is handled per request, not per process: a watch-loop
commit changes the catalog hash, the next query's freshness check
remaps the index (``repro_serving_remaps_total``), and the worker
keeps serving — no restart, no dropped connections.

Lifecycle is supervised (see :mod:`repro.serving.supervisor`): the
parent keeps the listening socket open so dead workers can be
re-forked over it, and SIGTERM is a *graceful drain* — the worker
stops accepting, finishes every in-flight request within the drain
deadline, then exits (``os._exit(0)``; deadline overrun exits
``DRAIN_TIMEOUT_EXIT`` so the parent can tell the difference).

This module and the supervisor are the only serving files on the
monotonic allowlist (``tests/test_no_wallclock.py``): readiness
polling, drain deadlines, and socket timeouts are real-wall-clock
concerns that :func:`time.monotonic` legitimately measures.
Everything above it times itself through ``get_telemetry().clock()``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ArchiveError
from repro.obs.instrument import count, set_gauge
from repro.obs.runtime import get_telemetry
from repro.serving.service import DEFAULT_BATCH_LIMIT, QueryService, RequestError
from repro.serving.supervisor import (
    DRAIN_TIMEOUT_EXIT,
    FleetState,
    FleetSupervisor,
    SupervisorPolicy,
)

#: How long the parent waits for every worker to answer /healthz.
DEFAULT_STARTUP_TIMEOUT = 10.0

#: How long a draining worker may spend finishing in-flight requests.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: What a shed response tells the client to wait before retrying.
DEFAULT_RETRY_AFTER = 0.5


@dataclass(frozen=True)
class ServingConfig:
    """Everything a daemon run needs, CLI-mappable one flag per field."""

    root: Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from start()
    workers: int = 2
    batch_limit: int = DEFAULT_BATCH_LIMIT
    startup_timeout: float = DEFAULT_STARTUP_TIMEOUT
    #: Restart dead workers (waitpid supervision loop in the parent).
    supervise: bool = False
    #: Seconds a drain may take before stragglers are force-killed.
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    #: Per-worker in-flight admission limit; 0 = unbounded (no shedding).
    max_in_flight: int = 0
    #: Per-request deadline budget in seconds; 0 = none.
    request_deadline: float = 0.0
    #: Retry-After seconds carried on shed (503) responses.
    retry_after: float = DEFAULT_RETRY_AFTER
    #: Restart/backoff/budget discipline for the supervised fleet.
    policy: SupervisorPolicy = SupervisorPolicy()
    #: Artificial per-request latency — a test/bench device for making
    #: in-flight windows observable (mirrors scenario fetch_latency_s).
    simulated_latency_s: float = 0.0


class _WorkerHandler(BaseHTTPRequestHandler):
    """One worker's HTTP surface over the shared socket."""

    protocol_version = "HTTP/1.1"  # keep-alive: batches amortize connects
    disable_nagle_algorithm = True  # header+body segments must not stall 40ms
    server: _WorkerServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # metrics, not stderr lines, are the observability surface

    def _respond(
        self, status: int, document: dict, *, retry_after: float | None = None
    ) -> None:
        body = json.dumps(document, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib naming
        server = self.server
        if server.draining.is_set():
            self.close_connection = True
        if self.path == "/healthz":
            document = {
                "ok": True,
                "worker": server.worker,
                "pid": os.getpid(),
                "catalog_hash": server.service.catalog_hash,
                "draining": server.draining.is_set(),
                "in_flight": server.in_flight,
            }
            if server.fleet_state is not None:
                document["fleet"] = server.fleet_state.snapshot()
            self._respond(200, document)
        elif self.path == "/metrics":
            self._respond(200, get_telemetry().dump())
        else:
            self._respond(404, {"error": f"no route {self.path!r}"})

    def do_POST(self):  # noqa: N802 - stdlib naming
        server = self.server
        if self.path != "/v1/query":
            self._respond(404, {"error": f"no route {self.path!r}"})
            return
        count("repro_serving_worker_requests_total", worker=server.worker)
        if server.draining.is_set():
            self.close_connection = True
        # Consume the body unconditionally — a shed (503) that leaves
        # unread body bytes on a keep-alive connection corrupts the
        # NEXT request's parse on that connection.
        try:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
        except (ValueError, OSError):
            self._respond(400, {"error": "body must be a JSON document"})
            return
        with server.admit() as admitted:
            if not admitted:
                count("repro_serving_shed_total", worker=server.worker)
                retry_after = server.config.retry_after
                self._respond(
                    503,
                    {"error": "over capacity", "retry_after": retry_after},
                    retry_after=retry_after,
                )
                return
            try:
                payload = json.loads(raw)
            except (ValueError, json.JSONDecodeError):
                self._respond(400, {"error": "body must be a JSON document"})
                return
            if server.config.simulated_latency_s:
                time.sleep(server.config.simulated_latency_s)
            budget = server.config.request_deadline or None
            try:
                document = server.service.handle_batch(payload, budget_s=budget)
            except RequestError as exc:
                self._respond(400, {"error": str(exc)})
                return
            # The response write stays INSIDE the admission window: a
            # drain must not observe in_flight == 0 while an accepted
            # request's bytes are still unwritten.
            self._respond(200, document)


class _WorkerServer(ThreadingHTTPServer):
    """A threading HTTP server over an inherited, already-bound socket."""

    daemon_threads = True

    def __init__(
        self,
        sock: socket.socket,
        service: QueryService,
        worker: str,
        config: ServingConfig | None = None,
        fleet_state: FleetState | None = None,
    ):
        super().__init__(sock.getsockname()[:2], _WorkerHandler, bind_and_activate=False)
        self.socket.close()  # the unbound one the base class made
        self.socket = sock
        self.service = service
        self.worker = worker
        self.config = config or ServingConfig(root=Path("."))
        self.fleet_state = fleet_state
        self.draining = threading.Event()
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()

    @property
    def in_flight(self) -> int:
        with self._in_flight_lock:
            return self._in_flight

    @contextmanager
    def admit(self):
        """Bounded admission: yields False (shed) over the in-flight limit."""
        limit = self.config.max_in_flight
        with self._in_flight_lock:
            admitted = not limit or self._in_flight < limit
            if admitted:
                self._in_flight += 1
                set_gauge("repro_serving_in_flight", self._in_flight)
        try:
            yield admitted
        finally:
            if admitted:
                with self._in_flight_lock:
                    self._in_flight -= 1
                    set_gauge("repro_serving_in_flight", self._in_flight)

    @contextmanager
    def track_in_flight(self):
        """Unbounded admission (kept for direct-embedding callers)."""
        with self.admit() as _:
            yield


def _run_worker(
    sock: socket.socket,
    config: ServingConfig,
    worker: str,
    fleet_state: FleetState | None = None,
) -> None:
    """A forked child's whole life: serve until SIGTERM, then drain."""
    service = QueryService(config.root, batch_limit=config.batch_limit)
    server = _WorkerServer(sock, service, worker, config, fleet_state)

    def _begin_drain(*_):
        # serve_forever runs in THIS (main) thread, so shutdown() from
        # the handler would deadlock waiting on its own loop — hand it
        # to a helper thread and let serve_forever return here.
        if server.draining.is_set():
            return
        server.draining.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _begin_drain)
    signal.signal(signal.SIGINT, _begin_drain)
    server.serve_forever(poll_interval=0.05)
    # Accept loop stopped.  Finish what we already accepted: wait for
    # in-flight handlers (response writes included) within the drain
    # deadline, then exit without server_close() — ThreadingMixIn's
    # close would join idle keep-alive reader threads and hang.
    deadline = time.monotonic() + config.drain_timeout
    while time.monotonic() < deadline:
        if server.in_flight == 0:
            os._exit(0)
        time.sleep(0.005)
    os._exit(DRAIN_TIMEOUT_EXIT)


def worker_pss_bytes(pid: int) -> int | None:
    """Proportional set size of one worker, or None where ``/proc`` lacks it.

    PSS splits each shared page (the mmap'd ``trust.bin``, pages
    inherited across the fork) among the processes mapping it, so the
    per-worker figures add up to what the fleet really holds.
    """
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) * 1024  # kB → bytes
    return None


class ServingDaemon:
    """Pre-forked serving: bind once, fork N, poll ready, drain to stop.

    With ``config.supervise`` the parent also runs a
    :class:`~repro.serving.supervisor.FleetSupervisor` thread that
    re-forks dead workers (backoff + restart budget) until
    :meth:`stop` requests the drain.
    """

    def __init__(self, config: ServingConfig):
        self.config = config
        self.host = ""
        self.port = 0
        self.supervisor: FleetSupervisor | None = None
        self._sock: socket.socket | None = None
        self._fleet_state: FleetState | None = None
        self._thread: threading.Thread | None = None

    @property
    def pids(self) -> list[int]:
        """Live worker pids (slot order); [] before start / after stop."""
        return self.supervisor.pids if self.supervisor is not None else []

    def start(self) -> tuple[str, int]:
        """Bind, fork the workers, and block until all answer /healthz."""
        if self.pids:
            raise ArchiveError("daemon already started")
        sock = socket.create_server(
            (self.config.host, self.config.port), backlog=128
        )
        self.host, self.port = sock.getsockname()[:2]
        # The parent KEEPS its handle on the bound socket: supervision
        # re-forks replacement workers over the very same socket.
        self._sock = sock
        # Shared fleet state must exist before the first fork so every
        # worker generation inherits the one mapping.
        self._fleet_state = FleetState.create()

        def spawn(slot: int) -> int:
            pid = os.fork()
            if pid == 0:  # child: never returns
                try:
                    _run_worker(sock, self.config, str(slot), self._fleet_state)
                except BaseException:
                    os._exit(1)
                os._exit(0)  # pragma: no cover - _run_worker never returns
            return pid

        self.supervisor = FleetSupervisor(
            spawn,
            self.config.workers,
            self._fleet_state,
            policy=self.config.policy,
            drain_timeout_s=self.config.drain_timeout,
        )
        self.supervisor.start()
        self._await_ready()
        if self.config.supervise:
            self._thread = threading.Thread(
                target=self.supervisor.run, name="fleet-supervisor", daemon=True
            )
            self._thread.start()
        return self.host, self.port

    def _await_ready(self) -> None:
        """Poll /healthz until a worker answers (or a worker died)."""
        deadline = time.monotonic() + self.config.startup_timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            deaths = self.supervisor.check_startup_deaths()
            if deaths:
                pid, status = deaths[0]
                self.stop()
                raise ArchiveError(
                    f"serving worker {pid} exited during startup "
                    f"(status {status}); archive unreadable?"
                )
            try:
                conn = HTTPConnection(self.host, self.port, timeout=1.0)
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = response.read()
                conn.close()
                if response.status == 200 and json.loads(body).get("ok"):
                    return
            except OSError as exc:
                last_error = exc
            time.sleep(0.05)
        self.stop()
        raise ArchiveError(
            f"serving daemon not ready after {self.config.startup_timeout}s "
            f"(last error: {last_error})"
        )

    def fleet_health(self) -> dict:
        """The parent-side fleet snapshot (what workers echo on /healthz)."""
        if self._fleet_state is None:
            raise ArchiveError("daemon not started")
        return self._fleet_state.snapshot()

    def stop(self) -> None:
        """Drain the fleet: SIGTERM → reap within deadline → force-kill."""
        if self.supervisor is None:
            return
        if self._thread is not None:
            # The supervision thread owns the drain once asked.
            self.supervisor.request_drain()
            self._thread.join(timeout=self.config.drain_timeout + 5.0)
            self._thread = None
        self.supervisor.drain()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def wait(self) -> None:
        """Block until the workers exit (foreground ``repro-roots serve``)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
            return
        for pid in list(self.pids):
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass

    def __enter__(self) -> ServingDaemon:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

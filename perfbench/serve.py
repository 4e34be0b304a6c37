"""serve: the trust-query daemon users start, under a closed loop.

Set-up (timed ``SETUP_REPEATS`` times, median reported) synthesizes the
paper corpus, archives it (649 snapshots, 10 providers, 280 roots) and
starts the daemon through the CLI users run,
``repro-roots serve DIR --workers 2 --supervise``; it ends when the CLI
has printed its health-checked catalog hash.

The load is a closed loop over ``CONNECTIONS`` keep-alive
``ServingClient`` connections, one thread each, one per worker.  Every
POST carries ``REQUESTS_PER_BATCH`` requests drawn from a seeded mix:
70% ``trusted_on`` (32 Zipf-skewed fingerprints at a uniformly drawn
release date), 15% ``ever_shipped``, 10% ``snapshot_at``, 5% ``diff``.
A batch that is shed, fails in transport or carries an error slot is a
failed operation and counts as a miss in the latency percentiles.

The workers are forked by the CLI and cannot be traced from here, so
the serving layers are measured by replaying the same request stream
in-process: request encode → decode → ``QueryService.handle_batch`` →
response encode → decode.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from itertools import accumulate

from common import ROOT, SRC, Result, digest, median, percentile, pss_mb
from layers import US, layer_metrics
from tracer import Tracer

from repro.archive import Archive, ingest_dataset
from repro.archive.io import set_fsync
from repro.archive.query import MANIFEST_CACHE_SIZE
from repro.serving import QueryService, ServingClient, ServingError, ServingOverloadError
from repro.simulation.corpus import generate_corpus

SETUP_REPEATS = 2
WORKERS = 2
CONNECTIONS = 2
REQUESTS_PER_BATCH = 4
PROBE_FINGERPRINTS = 32
ZIPF_EXPONENT = 1.1
MIX = (("trusted_on", 0.70), ("ever_shipped", 0.15), ("snapshot_at", 0.10), ("diff", 0.05))
#: Batches pre-generated per connection; the loop cycles through them.
STREAM_BATCHES = 2000
WARMUP_S = 1.0
#: The measured loop restarts from idle this many times (see closed_loop).
EPISODES = 8
EPISODE_GAP_S = 0.05
#: Every n-th answered batch is kept and re-answered in-process.
SAMPLE_EVERY = 25
#: In-process replay: warm-up batches, then timed batches.
REPLAY_WARMUP = 200
REPLAY_BATCHES = 600
DAEMON_START_TIMEOUT_S = 60.0

DESCRIPTION = {
    "loop": "closed",
    "connections": CONNECTIONS,
    "threads": CONNECTIONS,
    "flush": "archive built with fsync off; nothing is written while measured",
}

#: The per-layer metrics this workload exercises (printed in a traced run).
LAYERS = (
    "serving.client.batch_us", "serving.transport_us", "serving.codec.encode_us",
    "serving.codec.decode_us", "serving.codec.response_bytes",
    "serving.service.handle_batch_us", "serving.errors", "serving.shed",
    "archive.query.trusted_on_many_us", "archive.query.observations",
    "archive.query.ever_shipped_us", "archive.query.diff_us",
    "archive.query.manifest_hit_rate", "archive.binindex.in_force_us",
    "archive.binindex.postings_for_us", "archive.manifest.read_us", "archive.manifest.reads",
    "trace.overhead_ratio", "trace.coverage_share", "trace.untraced_share",
)

ENCODE, DECODE = "serving.codec.encode", "serving.codec.decode"


class RequestMix:
    """Seeded request batches over one archive's fingerprints and dates."""

    def __init__(self, index, seed: int):
        rng = random.Random(f"serve/{seed}")
        self.fingerprints = sorted(index.postings)
        rng.shuffle(self.fingerprints)  # the seed picks which roots are popular
        self.popularity = list(
            accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(self.fingerprints) + 1))
        )
        self.providers = sorted(index.providers)
        self.first = {p: index.timeline(p)[0].taken_at for p in self.providers}
        self.dates = sorted({e.taken_at for p in self.providers for e in index.timeline(p)})
        self.ops = [op for op, _ in MIX]
        self.op_weights = list(accumulate(share for _, share in MIX))
        self.seed = seed

    def _fingerprints(self, rng, k: int) -> list[str]:
        return rng.choices(self.fingerprints, cum_weights=self.popularity, k=k)

    def _request(self, rng) -> dict:
        op = rng.choices(self.ops, cum_weights=self.op_weights)[0]
        if op == "trusted_on":
            return {
                "op": op,
                "fingerprints": self._fingerprints(rng, PROBE_FINGERPRINTS),
                "when": rng.choice(self.dates).isoformat(),
            }
        if op == "ever_shipped":
            return {"op": op, "fingerprint": self._fingerprints(rng, 1)[0]}
        if op == "snapshot_at":
            return {
                "op": op,
                "provider": rng.choice(self.providers),
                "when": rng.choice(self.dates).isoformat(),
            }
        a, b = rng.sample(self.providers, 2)
        since = max(self.first[a], self.first[b])
        return {
            "op": op,
            "provider_a": a,
            "provider_b": b,
            "when": rng.choice([d for d in self.dates if d >= since]).isoformat(),
        }

    def stream(self, connection: int, batches: int) -> list[list[dict]]:
        rng = random.Random(f"serve/{self.seed}/connection/{connection}")
        return [
            [self._request(rng) for _ in range(REQUESTS_PER_BATCH)] for _ in range(batches)
        ]


class CliDaemon:
    """``repro-roots serve`` in a child process, stopped with Ctrl-C."""

    def __init__(self, archive_root):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-W", "ignore::RuntimeWarning", "-m", "repro.cli.main",
                "serve", str(archive_root), "--workers", str(WORKERS), "--supervise",
            ],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.host, self.port, self.pids, self.catalog_hash = self._await_banner()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_banner(self):
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        host = port = catalog_hash = None
        pids: list[int] = []
        while catalog_hash is None:
            try:
                line = self._lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro-roots serve did not report ready")
            if match := re.search(r"at http://([^:]+):(\d+)", line):
                host, port = match.group(1), int(match.group(2))
            elif match := re.search(r"\(pids ([\d ]+)\)", line):
                pids = [int(pid) for pid in match.group(1).split()]
            elif line.startswith("catalog hash:"):
                catalog_hash = line.split(":", 1)[1].strip()
        return host, port, pids, catalog_hash

    def interrupt(self) -> None:
        """Ctrl-C the CLI; it drains its workers and exits on its own."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def stop(self) -> None:
        """Interrupt the CLI, then wait for it and every worker to end."""
        self.interrupt()
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in getattr(self, "pids", []):
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)


def _alive(pid: int) -> bool:
    """Whether a (grand)child still runs; a zombie has ended."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _setup_once(workdir, rep: int):
    root = workdir / f"archive-{rep}"
    corpus = generate_corpus()
    previous = set_fsync(False)
    try:
        ingest_dataset(Archive(root, create=True), corpus.dataset)
    finally:
        set_fsync(previous)
    return root, CliDaemon(root)


def _connect_spread(daemon: CliDaemon) -> tuple[list[ServingClient], list[int]]:
    """One keep-alive connection per worker, checked by the pid /healthz reports.

    The kernel does not round-robin accepts, so two connections can land
    on one worker; reconnect until each worker holds one.
    """
    clients, pids = [], []
    for _ in range(CONNECTIONS):
        for _attempt in range(50):
            client = ServingClient(daemon.host, daemon.port)
            pid = client.health()["pid"]
            if pid not in pids or len(pids) >= WORKERS:
                break
            client.close()
        clients.append(client)
        pids.append(pid)
    return clients, pids


class LoopStats:
    def __init__(self):
        self.latencies: list[float] = []
        self.samples: list[tuple[int, int, dict]] = []
        self.errors = 0
        self.shed = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for latency in self.latencies if latency == float("inf"))


def closed_loop(clients, streams, seconds: float, *, sample: bool, between=None) -> LoopStats:
    """Each connection sends its next batch only after the previous reply.

    The time is split into ``EPISODES`` that all connections start
    together from idle: two closed loops sharing two cores can lock into
    one phase pattern for a whole run, and restarting them re-draws it.
    ``between(episode)`` runs after each episode while the daemon idles,
    so in-process timings sample the same stretch of machine time.
    """
    stats = LoopStats()
    per_thread = [LoopStats() for _ in clients]
    start_line = threading.Barrier(len(clients) + 1)
    finish_line = threading.Barrier(len(clients) + 1)
    episode_s = seconds / EPISODES

    def drive(slot: int) -> None:
        client, stream, mine = clients[slot], streams[slot], per_thread[slot]
        k = 0
        for _ in range(EPISODES):
            start_line.wait()
            stop_at = time.perf_counter() + episode_s
            while (start := time.perf_counter()) < stop_at:
                position = k % len(stream)
                k += 1
                try:
                    document = client.batch(stream[position])
                except ServingOverloadError:
                    mine.shed += 1
                    mine.latencies.append(float("inf"))
                    continue
                except ServingError:
                    mine.errors += 1
                    mine.latencies.append(float("inf"))
                    continue
                elapsed = time.perf_counter() - start
                if any("error" in slot_answer for slot_answer in document["responses"]):
                    mine.errors += 1
                    mine.latencies.append(float("inf"))
                    continue
                mine.latencies.append(elapsed)
                if sample and k % SAMPLE_EVERY == 1:
                    mine.samples.append((slot, position, document))
            finish_line.wait()

    threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(len(clients))]
    for thread in threads:
        thread.start()
    for episode in range(EPISODES):
        time.sleep(EPISODE_GAP_S)
        start_line.wait(timeout=60)
        start = time.perf_counter()
        finish_line.wait(timeout=episode_s + 60)
        stats.wall += time.perf_counter() - start
        if between is not None:
            between(episode)
    for thread in threads:
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("a load thread did not finish")
    for mine in per_thread:
        stats.latencies += mine.latencies
        stats.samples += mine.samples
        stats.errors += mine.errors
        stats.shed += mine.shed
    return stats


def _replay(service: QueryService, batch: list[dict], tracer: Tracer) -> int:
    """One request through the wire codec and the service, in-process."""
    with tracer.span("serve.replay"):
        with tracer.span(ENCODE):
            raw = json.dumps({"requests": batch}, separators=(",", ":"))
        with tracer.span(DECODE):
            payload = json.loads(raw)
        document = service.handle_batch(payload)
        with tracer.span(ENCODE):
            body = json.dumps(document, separators=(",", ":"))
        with tracer.span(DECODE):
            json.loads(body)
    return len(body)


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    result = Result()
    setups, daemons = [], []
    try:
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            root, daemon = _setup_once(workdir, rep)
            setups.append(time.perf_counter() - start)
            daemons.append(daemon)
            if rep < SETUP_REPEATS - 1:
                daemon.interrupt()  # waited for at the end, not inside a set-up
        return _measure(result, daemon, root, setups, seed, seconds, trace)
    finally:
        for daemon in daemons:
            daemon.stop()


def _measure(result, daemon, root, setups, seed, seconds, trace) -> Result:
    began = time.perf_counter()
    checker = QueryService(root)
    index = checker.query.index
    mix = RequestMix(index, seed)
    streams = [mix.stream(c, STREAM_BATCHES) for c in range(CONNECTIONS)]
    snapshots = sum(len(index.timeline(p)) for p in index.providers)
    result.notes.append(
        f"corpus: {snapshots} snapshots, {len(index.providers)} providers, "
        f"{index.fingerprint_count} roots = {snapshots / MANIFEST_CACHE_SIZE:.2f}x the "
        f"{MANIFEST_CACHE_SIZE}-entry manifest LRU"
    )

    # The same batches answered in-process, a slice after each episode.
    replayer = QueryService(root)
    replay = streams[0][: REPLAY_WARMUP + REPLAY_BATCHES]
    for batch in replay[:REPLAY_WARMUP]:
        replayer.handle_batch({"requests": batch})
    service_times = []

    def replay_slice(episode: int) -> None:
        size = REPLAY_BATCHES // EPISODES
        for batch in replay[REPLAY_WARMUP + episode * size:][:size]:
            start = time.perf_counter()
            replayer.handle_batch({"requests": batch})
            service_times.append(time.perf_counter() - start)

    clients, worker_pids = _connect_spread(daemon)
    tracer = Tracer()
    try:
        if len(set(worker_pids)) < CONNECTIONS:
            result.notes.append("connections share one worker (could not spread them)")
        closed_loop(clients, streams, WARMUP_S, sample=False)
        measured = closed_loop(
            clients, streams, seconds / 2 if trace else seconds, sample=True,
            between=replay_slice,
        )
        memory = [pss_mb(pid) for pid in sorted(set(daemon.pids) | set(worker_pids))]
        traced_loop = None
        if trace:
            with tracer.installed():
                traced_loop = closed_loop(clients, streams, seconds / 2, sample=False)
    finally:
        for client in clients:
            client.close()

    loaded = time.perf_counter()
    # Output check: sampled daemon answers equal the in-process answers.
    result.check("catalog hash served == in-process", daemon.catalog_hash == checker.catalog_hash)
    mismatched = 0
    for slot, position, document in measured.samples:
        expected = checker.handle_batch({"requests": streams[slot][position]})
        expected = json.loads(json.dumps(expected))
        mismatched += expected != document
    result.check(
        f"{len(measured.samples)} sampled responses == in-process, slot for slot",
        bool(measured.samples) and mismatched == 0,
    )

    result.notes.append(
        f"phases: setup {sum(setups):.1f} s, load and in-process replay "
        f"{loaded - began:.1f} s, checks {time.perf_counter() - loaded:.1f} s"
    )
    loops = [measured] + ([traced_loop] if traced_loop else [])
    result.attempted = sum(loop.attempted for loop in loops)
    result.failed = sum(loop.failed for loop in loops)
    ok = measured.attempted - measured.failed
    known_memory = [m for m in memory if m is not None]
    worker_pss = max(known_memory) if known_memory else None
    p50 = percentile(measured.latencies, 0.50) * 1e3
    p90 = percentile(measured.latencies, 0.90) * 1e3
    rate = ok / measured.wall
    inprocess = median(service_times) * 1e3
    result.end_to_end = {
        "setup_s": median(setups),
        "p50_ms": p50,
        "p90_ms": p90,
        "throughput_per_s": rate,
        "query_p50_ms": inprocess,
        "memory_mb": worker_pss,
    }
    n = measured.attempted
    result.line("setup_s", median(setups), "s", len(setups))
    result.line("failed_share", result.failed / max(1, result.attempted), "share", result.attempted)
    result.line("serve.p50_ms", p50, "ms", n)
    result.line("serve.p90_ms", p90, "ms", n)
    result.line("serve.batches_per_s", rate, "1/s", ok)
    result.line("serve.worker_pss_mb", worker_pss, "MB", len(known_memory))
    result.line("serve.inprocess_p50_ms", inprocess, "ms", len(service_times))
    result.counts = {
        "catalog_hash": checker.catalog_hash,
        "request_stream": digest(streams),
    }
    if trace:
        result.layers, result.layer_samples = _layers(
            tracer, replayer, replay[REPLAY_WARMUP:], measured, traced_loop
        )
        result.tracer = tracer
        result.counts.update(
            observations=result.layers["archive.query.observations"],
            manifest_reads=result.layers["archive.manifest.reads"],
        )
    return result


def _layers(tracer, replayer, batches, measured, traced_loop):
    """Alternate untraced and traced replays of the same batches.

    The client spans recorded by the traced load loop stay in ``tracer``;
    the replay adds the codec, service and archive spans beside them.
    """
    tracer.hold(replayer.query)
    plain, traced, body_bytes = [], [], []
    for k, batch in enumerate(batches):
        with tracer.installed(k % 2 == 1):
            start = time.perf_counter()
            size = _replay(replayer, batch, tracer)
            elapsed = time.perf_counter() - start
        (traced if k % 2 else plain).append(elapsed)
        if k % 2:
            body_bytes.append(size)
    values, samples = layer_metrics(tracer, ("serve.replay",), median(traced) / median(plain))
    samples["trace.overhead_ratio"] = len(traced)
    per_batch = len(traced)
    encode_us = sum(tracer.durations(ENCODE)) / per_batch * US
    decode_us = sum(tracer.durations(DECODE)) / per_batch * US
    client_us = values["serving.client.batch_us"]
    handle_us = values["serving.service.handle_batch_us"]
    values.update(
        {
            "serving.transport_us": client_us - encode_us - decode_us - handle_us,
            "serving.codec.encode_us": encode_us,
            "serving.codec.decode_us": decode_us,
            "serving.codec.response_bytes": sum(body_bytes) / len(body_bytes),
            "serving.errors": measured.errors + traced_loop.errors,
            "serving.shed": measured.shed + traced_loop.shed,
            "archive.query.manifest_hit_rate": replayer.query.cache_stats()["manifest"].hit_rate,
        }
    )
    samples.update(
        {
            "serving.transport_us": samples["serving.client.batch_us"],
            "serving.codec.encode_us": per_batch,
            "serving.codec.decode_us": per_batch,
            "serving.codec.response_bytes": per_batch,
        }
    )
    return values, samples

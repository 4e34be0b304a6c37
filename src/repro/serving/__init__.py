"""The trust-query serving layer: mmap-able index + pre-forked daemon.

The archive (:mod:`repro.archive`) already answers point-in-time trust
queries in-process; this package makes those answers *servable*:

- :mod:`repro.archive.binindex` (re-exported by the archive) is the
  persisted index, one mmap-able binary file, so a worker's cold
  start is a header read — not a full decode — and N workers share
  index pages.
- :mod:`repro.serving.service` — the transport-free batch engine:
  ``trusted_on`` (batched through
  :meth:`~repro.archive.query.ArchiveQuery.trusted_on_many`),
  ``ever_shipped``, ``snapshot_at``, ``diff``; per-slot errors;
  staleness remap accounting.
- :mod:`repro.serving.daemon` — ``repro-roots serve``: one bound
  socket, N forked workers, /healthz readiness, /metrics, graceful
  SIGTERM drain, bounded in-flight admission with 503 + Retry-After
  shedding, and per-request deadline budgets.
- :mod:`repro.serving.supervisor` — the self-healing fleet layer:
  waitpid supervision with per-slot backoff and restart budgets
  (crash storms trip to a degraded state on /healthz), plus the
  drain → reap → force-kill stop sequence.
- :mod:`repro.serving.client` — the stdlib client the bench and tests
  drive it with (typed overload/reconnect handling, bounded batch
  retries).

Capacity numbers live in ``BENCH_serving.json``
(:mod:`repro.bench.serving`); operational notes in
``docs/serving.md``.
"""

from repro.serving.client import (
    ServingClient,
    ServingError,
    ServingOverloadError,
    ServingRequestError,
)
from repro.serving.daemon import (
    ServingConfig,
    ServingDaemon,
    worker_pss_bytes,
)
from repro.serving.service import (
    DEFAULT_BATCH_LIMIT,
    OPS,
    QueryService,
    RequestError,
)
from repro.serving.supervisor import (
    FleetState,
    FleetSupervisor,
    SupervisorPolicy,
)

__all__ = [
    "DEFAULT_BATCH_LIMIT",
    "OPS",
    "FleetState",
    "FleetSupervisor",
    "QueryService",
    "RequestError",
    "ServingClient",
    "ServingConfig",
    "ServingDaemon",
    "ServingError",
    "ServingOverloadError",
    "ServingRequestError",
    "SupervisorPolicy",
    "worker_pss_bytes",
]

"""The query service behind the daemon: one batch request → one answer.

:class:`QueryService` is the transport-free core of the serving layer.
It owns a single :class:`~repro.archive.query.ArchiveQuery`, which maps
the archive's ``index/trust.bin`` (checksum-verified on open), constructed with
``refresh_on_stale=True``, so a watch-loop commit under a live worker
triggers an index *remap* on the next request — counted in
``repro_serving_remaps_total`` — never a restart.

The wire vocabulary is a batch of JSON request objects, each with an
``op``:

- ``trusted_on`` — ``fingerprints`` (list), ``when`` (ISO date),
  optional ``purpose``/``providers``.  Routed through
  :meth:`ArchiveQuery.trusted_on_many`, so the whole batch costs one
  timeline walk per provider.
- ``ever_shipped`` — ``fingerprint``; every (provider, release) that
  shipped it.
- ``snapshot_at`` — ``provider`` + ``when``; the release *metadata* in
  force (version, date, entry count, manifest id) — reconstruction of
  full snapshots stays a library concern.
- ``diff`` — two providers selected by shared ``when`` or explicit
  ``version_a``/``version_b``; the fingerprint-set difference.

A request that fails (unknown op, bad date, unknown provider) turns
into ``{"error": ...}`` in its slot; the rest of the batch still
answers.  ``purpose`` accepts any :class:`TrustPurpose` value plus
``"any"`` for raw presence; the default is server-auth, matching the
paper.  The service is thread-safe via one lock — ``ArchiveQuery``'s
LRU caches are not — which pairs with one service per pre-forked
worker process (:mod:`repro.serving.daemon`).
"""

from __future__ import annotations

import threading
from datetime import date
from pathlib import Path

from repro.archive.manifest import Archive
from repro.archive.query import ArchiveQuery, TrustObservation
from repro.errors import ArchiveError, StoreError
from repro.obs.instrument import count, observe, stage_timer
from repro.obs.runtime import get_telemetry
from repro.store.purposes import TrustPurpose

#: Ops a batch request may carry.
OPS = ("trusted_on", "ever_shipped", "snapshot_at", "diff")

#: Most fingerprints one batch may probe (guards worker memory).
DEFAULT_BATCH_LIMIT = 1024

#: Wire value asking about raw presence instead of a purpose.
ANY_PURPOSE = "any"


class RequestError(ValueError):
    """A malformed or unanswerable request (reported per-slot)."""


def _parse_date(value, field: str) -> date:
    if not isinstance(value, str):
        raise RequestError(f"{field!r} must be an ISO date string")
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise RequestError(f"{field!r}: {exc}") from exc


def _parse_purpose(value) -> TrustPurpose | None:
    """Wire purpose → enum (default server-auth, ``"any"`` → None)."""
    if value is None:
        return TrustPurpose.SERVER_AUTH
    if value == ANY_PURPOSE:
        return None
    try:
        return TrustPurpose(value)
    except ValueError as exc:
        allowed = [p.value for p in TrustPurpose] + [ANY_PURPOSE]
        raise RequestError(f"unknown purpose {value!r} (one of {allowed})") from exc


def _observation_json(observation: TrustObservation) -> dict:
    return {
        "provider": observation.provider,
        "version": observation.version,
        "taken_at": observation.taken_at.isoformat(),
        "present": observation.present,
        "level": observation.level.value if observation.level is not None else None,
    }


class QueryService:
    """Batch trust queries over one archive, remapping on staleness."""

    def __init__(
        self,
        root: Archive | Path | str,
        *,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
    ):
        self.query = ArchiveQuery(root, refresh_on_stale=True)
        self.batch_limit = batch_limit
        self._lock = threading.Lock()
        #: How often a request found the catalog changed and remapped.
        self.remaps = 0

    @property
    def catalog_hash(self) -> str:
        return self.query.catalog_hash

    # -- the batch entry point --------------------------------------------

    def handle_batch(self, payload, *, budget_s: float | None = None) -> dict:
        """Answer one wire payload: ``{"requests": [...]}`` → responses.

        Each response slot is either the op's result object or
        ``{"error": "..."}``.  The catalog hash every answer refers to
        rides along; comparing it across calls is how load generators
        observe remaps.

        ``budget_s`` is the per-request deadline budget: once the batch
        has spent that long (telemetry clock), every *remaining* slot
        answers ``{"error": "deadline budget exhausted"}`` instead of
        running — the slots already computed still return, so a client
        gets partial results plus an explicit signal, never an
        unbounded stall.  Exhausted slots count toward
        ``repro_serving_deadline_total`` per op.
        """
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            raise RequestError('payload must be {"requests": [...]}')
        requests = payload["requests"]
        clock = get_telemetry().clock
        with self._lock:
            before = self.query.catalog_hash
            started = clock()
            responses = []
            for request in requests:
                if budget_s is not None and clock() - started >= budget_s:
                    op = request.get("op") if isinstance(request, dict) else None
                    op = op if op in OPS else "unknown"
                    count("repro_serving_deadline_total", op=op)
                    count("repro_serving_requests_total", op=op, outcome="deadline")
                    responses.append({"error": "deadline budget exhausted"})
                    continue
                responses.append(self._handle_one(request))
            after = self.query.catalog_hash
            if after != before:
                self.remaps += 1
                count("repro_serving_remaps_total")
        return {"catalog_hash": after, "responses": responses}

    def _handle_one(self, request) -> dict:
        if not isinstance(request, dict):
            return {"error": "request must be a JSON object"}
        op = request.get("op")
        if op not in OPS:
            return {"error": f"unknown op {op!r} (one of {list(OPS)})"}
        with stage_timer(
            "serving.request",
            metric="repro_serving_request_seconds",
            metric_labels={"op": op},
            op=op,
        ):
            try:
                result = getattr(self, f"_op_{op}")(request)
            except (RequestError, ArchiveError, StoreError) as exc:
                count("repro_serving_requests_total", op=op, outcome="error")
                return {"error": str(exc)}
        count("repro_serving_requests_total", op=op, outcome="ok")
        return result

    # -- per-op handlers ---------------------------------------------------

    def _op_trusted_on(self, request) -> dict:
        fingerprints = request.get("fingerprints")
        if not isinstance(fingerprints, list) or not all(
            isinstance(f, str) for f in fingerprints
        ):
            raise RequestError("'fingerprints' must be a list of hex strings")
        if len(fingerprints) > self.batch_limit:
            raise RequestError(
                f"batch of {len(fingerprints)} exceeds limit {self.batch_limit}"
            )
        when = _parse_date(request.get("when"), "when")
        purpose = _parse_purpose(request.get("purpose"))
        providers = request.get("providers")
        observations = self.query.trusted_on_many(
            fingerprints, when, purpose=purpose, providers=providers
        )
        observe("repro_serving_batch_fingerprints", len(fingerprints), op="trusted_on")
        return {
            "observations": [
                [_observation_json(o) for o in per_fingerprint]
                for per_fingerprint in observations
            ]
        }

    def _op_ever_shipped(self, request) -> dict:
        fingerprint = request.get("fingerprint")
        if not isinstance(fingerprint, str):
            raise RequestError("'fingerprint' must be a hex string")
        postings = self.query.ever_shipped(fingerprint)
        return {
            "postings": [
                {
                    "provider": p.provider,
                    "version": p.version,
                    "taken_at": p.taken_at.isoformat(),
                }
                for p in postings
            ]
        }

    def _op_snapshot_at(self, request) -> dict:
        provider = request.get("provider")
        if not isinstance(provider, str):
            raise RequestError("'provider' must be a string")
        when = _parse_date(request.get("when"), "when")
        # timeline() validates the provider and runs the freshness
        # check; the raw-bisect resolution then touches one record.
        self.query.timeline(provider)
        entry = self.query.index.in_force(provider, when)
        if entry is None:
            return {"release": None}
        return {
            "release": {
                "provider": provider,
                "version": entry.version,
                "taken_at": entry.taken_at.isoformat(),
                "entries": entry.entries,
                "manifest_id": entry.manifest_id,
            }
        }

    def _op_diff(self, request) -> dict:
        provider_a = request.get("provider_a")
        provider_b = request.get("provider_b")
        if not isinstance(provider_a, str) or not isinstance(provider_b, str):
            raise RequestError("'provider_a' and 'provider_b' must be strings")
        when = request.get("when")
        diff = self.query.diff(
            provider_a,
            provider_b,
            when=_parse_date(when, "when") if when is not None else None,
            version_a=request.get("version_a"),
            version_b=request.get("version_b"),
            purpose=_parse_purpose(request.get("purpose")),
        )
        return {
            "provider_a": diff.provider_a,
            "version_a": diff.version_a,
            "provider_b": diff.provider_b,
            "version_b": diff.version_b,
            "only_a": sorted(diff.only_a),
            "only_b": sorted(diff.only_b),
            "shared": sorted(diff.shared),
            "jaccard_distance": diff.jaccard_distance,
        }

"""In-memory span tracer that times layers from outside the program.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces a layer's public entry points with timing
wrappers and rebinds each one *where its caller looks it up*: a
module-level function is replaced in every loaded module that holds
it (so ``repro.archive.ingest``'s own ``persist_index`` binding is
wrapped, not just ``repro.archive.index.persist_index``), a method is
replaced on its defining class, and objects that captured a function
at construction (``ArchiveQuery._index_loader``) are registered as
extra holders.

Each span records ``(id, parent id, name, start, end)``; parents come
from a per-thread stack, so the two serving client threads keep
separate trees.  Spans and counters stay in memory until the run ends
and :meth:`Tracer.dump` writes them out.  A layer's self time is its
span minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _count_observations(tracer, args, result):
    tracer.count("archive.query.observations", sum(len(per_fp) for per_fp in result))


def _count_put(tracer, args, result):
    tracer.count("archive.cas.puts")
    if not result.created:
        tracer.count("archive.cas.deduplicated")


def _count_read(tracer, args, result):
    tracer.count("archive.manifest.reads")


def _count_tag(tracer, args, result):
    tracer.count("formats.tags")


#: (span name, module, attribute path, counter hook or None).  The
#: attribute path is ``func`` for a module-level function and
#: ``Class.method`` for a method.  Span names follow the module path of
#: the layer, so a layer table reads like the source tree.
TARGETS = (
    ("serving.client.batch", "repro.serving.client", "ServingClient.batch", None),
    ("serving.service.handle_batch", "repro.serving.service", "QueryService.handle_batch", None),
    ("archive.query.open", "repro.archive.query", "ArchiveQuery.__init__", None),
    ("archive.query.trusted_on_many", "repro.archive.query", "ArchiveQuery.trusted_on_many",
     _count_observations),
    ("archive.query.ever_shipped", "repro.archive.query", "ArchiveQuery.ever_shipped", None),
    ("archive.query.diff", "repro.archive.query", "ArchiveQuery.diff", None),
    ("archive.query.incidence", "repro.archive.query", "ArchiveQuery.incidence", None),
    ("archive.query.distance_matrix", "repro.archive.query", "ArchiveQuery.distance_matrix", None),
    ("archive.binindex.in_force", "repro.archive.binindex", "BinaryIndex.in_force", None),
    ("archive.binindex.postings_for", "repro.archive.binindex", "BinaryIndex.postings_for", None),
    ("archive.binindex.load", "repro.archive.binindex", "load_binary_index", None),
    ("archive.binindex.persist", "repro.archive.binindex", "persist_binary_index", None),
    ("archive.index.load", "repro.archive.index", "load_index", None),
    ("archive.index.build", "repro.archive.index", "build_index", None),
    ("archive.index.apply_delta", "repro.archive.index", "apply_index_delta", None),
    ("archive.index.persist", "repro.archive.index", "persist_index", None),
    ("archive.manifest.read", "repro.archive.manifest", "Archive.read_manifest", _count_read),
    ("archive.manifest.write", "repro.archive.manifest", "Archive.write_manifest", None),
    ("archive.manifest.catalog_write", "repro.archive.manifest", "Archive.write_catalog", None),
    ("archive.cas.put", "repro.archive.cas", "ContentStore.put", _count_put),
    ("archive.journal.record", "repro.archive.journal", "IngestJournal.record_snapshot", None),
    ("archive.journal.commit", "repro.archive.journal", "IngestJournal.commit", None),
    ("archive.ingest.add_snapshot", "repro.archive.ingest", "ArchiveWriter.add_snapshot", None),
    ("archive.ingest.commit", "repro.archive.ingest", "ArchiveWriter.commit", None),
    ("archive.checkpoint.save", "repro.archive.checkpoint", "CheckpointStore.save", None),
    ("formats.parse", "repro.collection.watch", "WatchedOrigin.parse", _count_tag),
    ("analysis.sparse.maxmin_landmarks", "repro.analysis.sparse", "maxmin_landmarks", None),
    ("analysis.sparse.cross_distances", "repro.analysis.sparse", "cross_distances", None),
    ("analysis.mds.landmark_mds", "repro.analysis.mds", "landmark_mds", None),
    ("analysis.mds.smacof", "repro.analysis.mds", "smacof", None),
    ("analysis.incidence.jaccard_distances", "repro.analysis.incidence", "jaccard_distances",
     None),
)


class Tracer:
    """Timing wrappers around :data:`TARGETS`, spans kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._holders: list[object] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (workload roots, codec calls)."""
        if not self.active:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def count(self, name: str, value: int = 1) -> None:
        if self.active:
            self.counters[name] += value

    def _wrap(self, name: str, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def hold(self, holder: object) -> None:
        """Also rebind wrapped functions this object captured as attributes."""
        if self.active:
            raise RuntimeError("register holders while the tracer is uninstalled")
        self._holders.append(holder)
        self._patches = None

    def _plan(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for name, module_name, path, on_result in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original, self._wrap(name, original, on_result)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, on_result)
            holders = [m for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
            for holder in holders + self._holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, attr, original, wrapper))
        return patches

    def install(self) -> None:
        """Rebind every target to its wrapper and start recording."""
        if self._patches is None:
            self._patches = self._plan()
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        """Put the original bindings back; nothing is recorded after this."""
        self.active = False
        for holder, attr, original, _ in self._patches or ():
            setattr(holder, attr, original)

    @contextmanager
    def installed(self, enabled: bool = True):
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- merging and output ----------------------------------------------

    def merge(self, spans: list, counters: dict) -> None:
        """Adopt spans and counters a child process recorded."""
        offset = max((s[0] for s in self.spans), default=0)
        for sid, parent, name, start, end in spans:
            self.spans.append((sid + offset, parent + offset if parent else 0, name, start, end))
        self.counters.update(counters)
        self._ids = itertools.count(offset + max((s[0] for s in spans), default=0) + 1)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.export()))

    # -- aggregation ------------------------------------------------------

    def durations(self, name: str, *, parent: str | None = None) -> list[float]:
        """Inclusive durations of spans called ``name``, optionally only
        those whose direct parent span is called ``parent``."""
        names = {sid: span_name for sid, _, span_name, _, _ in self.spans}
        return [
            end - start
            for _, parent_id, span_name, start, end in self.spans
            if span_name == name and (parent is None or names.get(parent_id) == parent)
        ]

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive seconds, self seconds) per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[sid]
        return sorted(
            ((name, calls[name], total[name], own[name]) for name in calls),
            key=lambda row: -row[2],
        )

    def coverage(self, roots: tuple[str, ...]) -> tuple[float, float]:
        """(root seconds, seconds covered by the roots' direct children)."""
        root_ids = {sid: end - start for sid, _, name, start, end in self.spans if name in roots}
        covered = sum(
            end - start for _, parent, _, start, end in self.spans if parent in root_ids
        )
        return sum(root_ids.values()), covered

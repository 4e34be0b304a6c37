"""The repo benchmark still finds every name it traces or calls.

``perfbench/tracer.py`` times layers from outside the program by
looking each one up by name (``TARGETS``: module + function or
``Class.method``), and the ordination and serve workloads call further
repo APIs by name.  Renaming or deleting one of those names in
``src/``, or changing its call signature, would otherwise surface only
when someone runs ``perfbench/run.py``, so these tests resolve every
tracer entry the way the tracer does, bind every called signature the
way the workloads call it, and run those calls once on a small archive.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.analysis.mds import landmark_mds, smacof
from repro.analysis.sparse import cross_distances, maxmin_landmarks
from repro.archive import Archive, ArchiveQuery, ingest_dataset
from repro.archive.query import MANIFEST_CACHE_SIZE
from repro.bench.runner import smoke_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for span, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
            assert owner is not None, f"{span}: {module_name}.{path} does not resolve"
        assert callable(owner), f"{span}: {module_name}.{path} is not callable"


def test_workload_call_signatures_bind():
    """Each call as ``perfbench/ordination.py`` and ``serve.py`` write it."""
    engine, incidence = object(), object()
    inspect.signature(ArchiveQuery).bind("archive-root")
    inspect.signature(ArchiveQuery.incidence).bind(engine, sparse=True)
    inspect.signature(ArchiveQuery.distance_matrix).bind(engine, providers=["nss"])
    inspect.signature(ArchiveQuery.cache_stats).bind(engine)
    inspect.signature(maxmin_landmarks).bind(incidence, 96)
    inspect.signature(cross_distances).bind(incidence, (0, 1))
    inspect.signature(landmark_mds).bind(object(), (0, 1))
    inspect.signature(smacof).bind(object())
    assert isinstance(MANIFEST_CACHE_SIZE, int) and MANIFEST_CACHE_SIZE > 0


@pytest.fixture(scope="module")
def small_query(dataset, tmp_path_factory):
    archive = Archive(tmp_path_factory.mktemp("perfbench-names") / "archive", create=True)
    ingest_dataset(archive, smoke_dataset(dataset))
    return ArchiveQuery(archive.root)


def test_workload_calls_run_on_a_small_archive(small_query):
    incidence = small_query.incidence(sparse=True)
    snapshots = sum(
        len(small_query.index.timeline(p)) for p in small_query.index.providers
    )
    assert incidence.n_rows == snapshots
    landmarks = maxmin_landmarks(incidence, 4)
    embedding = landmark_mds(cross_distances(incidence, landmarks), landmarks)
    assert embedding.landmark_result.iterations >= 1
    assert embedding.cross_stress1 >= 0.0
    distances = small_query.distance_matrix(providers=list(small_query.index.providers))
    figure1 = smacof(distances.matrix)
    assert figure1.iterations >= 1 and figure1.embedding.tobytes()
    assert 0.0 <= small_query.cache_stats()["manifest"].hit_rate <= 1.0
    assert small_query.index.fingerprint_count > 0
    assert small_query.catalog_hash

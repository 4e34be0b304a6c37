"""The one index representation: ``trust.bin``'s sections, read and written.

- the surface the perfbench workloads read off ``ArchiveQuery.index``
  and the signatures of the index functions its tracer wraps;
- byte identity against the record-by-record oracle encoder
  (:mod:`tests.oracle`) for the default corpus and the seed-0
  ordination population, and delta == rebuild over random
  ingest/replace sessions;
- verify-on-open: a byte flipped in any payload section is rebuilt
  from the manifests, never answered from — on a fresh open and on a
  remap after a catalog change;
- the index path never imports numpy, and a commit serializes its
  catalog once.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import shutil
import subprocess
import sys
import textwrap
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.archive.ingest as ingest_module
import repro.archive.manifest as manifest_module
from repro.archive import (
    Archive,
    ArchiveQuery,
    BinaryIndex,
    apply_index_delta,
    build_index,
    ingest_dataset,
    ingest_snapshots,
    load_binary_index,
    load_index,
    persist_binary_index,
    persist_index,
)
from repro.archive.binindex import binary_index_path
from repro.bench.runner import smoke_dataset
from repro.obs import telemetry_session
from repro.simulation import PopulationSpec, synthesize_population
from repro.store.snapshot import RootStoreSnapshot
from tests import oracle
from tests.conftest import fsync_off, scan_engine

pytestmark = pytest.mark.usefixtures("no_fsync")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def small_snapshots(dataset):
    small = smoke_dataset(dataset)
    return [snapshot for provider in small.providers for snapshot in small[provider]]


@pytest.fixture(scope="module")
def small_archive(small_snapshots, tmp_path_factory):
    root = tmp_path_factory.mktemp("sections") / "archive"
    with fsync_off():
        ingest_snapshots(Archive(root, create=True), small_snapshots)
    return root


def _clone(root: Path, tmp_path: Path) -> Archive:
    clone = tmp_path / "clone"
    shutil.copytree(root, clone)
    return Archive(clone)


# -- the surface perfbench reads --------------------------------------------


def test_index_surface_perfbench_reads(small_archive):
    index = ArchiveQuery(small_archive).index
    fingerprints = sorted(oracle.build_index(Archive(small_archive)).postings)
    assert sorted(index.postings) == fingerprints
    assert index.fingerprint_count == len(fingerprints)
    assert index.providers == sorted(index.providers)
    for provider in index.providers:
        timeline = index.timeline(provider)
        assert timeline and all(isinstance(entry.taken_at, date) for entry in timeline)


@pytest.mark.parametrize(
    "target, parameters",
    [
        (load_index, ["archive", "rebuild"]),
        (load_binary_index, ["archive"]),
        (build_index, ["archive"]),
        (apply_index_delta, ["base", "changes", "catalog_hash"]),
        (persist_index, ["archive", "index"]),
        (persist_binary_index, ["archive", "index"]),
        (BinaryIndex.in_force, ["self", "provider", "when"]),
        (BinaryIndex.postings_for, ["self", "fingerprint"]),
    ],
    ids=lambda value: getattr(value, "__qualname__", None),
)
def test_traced_index_signatures(target, parameters):
    """The perfbench tracer wraps these by name and calls them as written."""
    signature = inspect.signature(target)
    assert list(signature.parameters) == parameters
    if target is load_index:
        rebuild = signature.parameters["rebuild"]
        assert rebuild.kind is inspect.Parameter.KEYWORD_ONLY and rebuild.default is False


# -- byte identity ----------------------------------------------------------


def test_corpus_index_equals_the_oracle_encoding(dataset, tmp_path):
    archive = Archive(tmp_path / "corpus", create=True)
    ingest_dataset(archive, dataset)
    assert len(archive.read_catalog()) == 649
    expected = oracle.index_bytes(archive)
    assert binary_index_path(archive).read_bytes() == expected
    assert build_index(archive).encode() == expected


def test_population_index_equals_the_oracle_encoding(corpus, tmp_path):
    """The seed-0 ordination population (3,424 snapshots)."""
    population = synthesize_population(corpus, PopulationSpec(providers=80))
    archive = Archive(tmp_path / "population", create=True)
    ingest_dataset(archive, population)
    assert len(archive.read_catalog()) == 3424
    assert binary_index_path(archive).read_bytes() == oracle.index_bytes(archive)


_OPS = st.tuples(
    st.sampled_from(["add", "replace", "relabel", "rename"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=40),
)


def _snapshot(pool, kind, i, j, k) -> RootStoreSnapshot:
    base = pool[i % len(pool)]
    if kind == "replace":  # same key, other content (possibly none)
        entries = pool[j % len(pool)].entries[:k]
        return RootStoreSnapshot(base.provider, base.taken_at, base.version, entries)
    if kind == "relabel":  # a new key whose version widens the records
        return dataclasses.replace(base, version=f"{base.version}-rc{'0' * k}")
    if kind == "rename":  # a new provider, possibly a wider name
        return dataclasses.replace(base, provider=f"{base.provider}{'x' * (k % 12 + 1)}")
    return base


@given(sessions=st.lists(st.lists(_OPS, min_size=1, max_size=5), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None, suppress_health_check=list(HealthCheck))
def test_delta_equals_rebuild_over_random_sessions(small_snapshots, tmp_path_factory, sessions):
    archive = Archive(tmp_path_factory.mktemp("delta") / "archive", create=True)
    for session in sessions:
        with telemetry_session() as telemetry:
            ingest_snapshots(archive, [_snapshot(small_snapshots, *op) for op in session])
            families = {family["name"]: family for family in telemetry.registry.to_dict()}
        updates = families.get("repro_archive_index_updates_total", {"series": []})
        assert all(s["labels"] == {"mode": "delta"} for s in updates["series"])
        assert binary_index_path(archive).read_bytes() == oracle.index_bytes(archive)


# -- verify on open ---------------------------------------------------------


def _section_offsets(path: Path) -> dict[str, tuple[int, int]]:
    """Each payload section's ``[start, stop)``, read off the raw header."""
    head = path.read_bytes()[: oracle._HEADER.size]
    _, _, _, provider_width, version_width, *counts, payload_len, _, _ = oracle._HEADER.unpack(
        head
    )
    n_providers, n_timelines, n_fingerprints, n_postings = counts
    sizes = {
        "providers": n_providers * (provider_width + oracle._RANGE.size),
        "timelines": n_timelines * (oracle._TIMELINE_FIXED.size + version_width),
        "fingerprints": n_fingerprints * 32,
        "ranges": n_fingerprints * oracle._RANGE.size,
        "postings": n_postings * oracle._POSTING.size,
    }
    assert sum(sizes.values()) == payload_len
    offsets, start = {}, oracle._HEADER.size
    for name, size in sizes.items():
        offsets[name] = (start, start + size)
        start += size
    return offsets


def _flip(path: Path, section: str) -> None:
    start, stop = _section_offsets(path)[section]
    data = bytearray(path.read_bytes())
    data[(start + stop) // 2] ^= 0x5A
    path.write_bytes(bytes(data))


def _assert_answers_match_oracle(engine: ArchiveQuery, archive: Archive) -> None:
    reference = scan_engine(archive.root)
    for fingerprint in reference.index.postings:
        assert engine.ever_shipped(fingerprint) == reference.ever_shipped(fingerprint)
    for provider in reference.providers:
        assert engine.timeline(provider) == reference.timeline(provider)
    assert binary_index_path(archive).read_bytes() == oracle.index_bytes(archive)


@pytest.mark.parametrize("section", ["providers", "timelines", "fingerprints", "ranges", "postings"])
def test_flipped_section_is_rebuilt_on_open(small_archive, tmp_path, section):
    archive = _clone(small_archive, tmp_path)
    _flip(binary_index_path(archive), section)
    _assert_answers_match_oracle(ArchiveQuery(archive), archive)


@pytest.mark.parametrize("section", ["timelines", "postings"])
def test_flipped_section_is_rebuilt_on_remap(small_snapshots, tmp_path, section):
    archive = Archive(tmp_path / "archive", create=True)
    ingest_snapshots(archive, small_snapshots[:-1])
    engine = ArchiveQuery(archive, refresh_on_stale=True)
    old_hash = engine.catalog_hash
    ingest_snapshots(archive, small_snapshots[-1:])  # catalog change + delta
    _flip(binary_index_path(archive), section)
    _assert_answers_match_oracle(engine, archive)
    assert engine.catalog_hash == archive.catalog_hash() != old_hash


# -- numpy-free index path, one catalog serialization -------------------------


def test_index_path_never_imports_numpy(small_archive, tmp_path):
    archive = _clone(small_archive, tmp_path)
    script = textwrap.dedent(
        """
        import dataclasses, sys
        from repro.archive import Archive, ArchiveQuery, ingest_snapshots, set_fsync

        set_fsync(False)
        root = sys.argv[1]
        query = ArchiveQuery(root)
        provider = query.providers[0]
        latest = query.snapshot(provider, query.timeline(provider)[-1].version)
        ingest_snapshots(Archive(root), [dataclasses.replace(latest, version="next")])
        assert ArchiveQuery(root).index.catalog_hash == Archive(root).catalog_hash()
        print("numpy" in sys.modules)
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(archive.root)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_commit_serializes_the_catalog_once(small_snapshots, tmp_path, monkeypatch):
    calls = []
    original = manifest_module.serialize_catalog

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(manifest_module, "serialize_catalog", counting)
    monkeypatch.setattr(ingest_module, "serialize_catalog", counting)
    archive = Archive(tmp_path / "archive", create=True)
    ingest_snapshots(archive, small_snapshots[:-1])
    ingest_snapshots(archive, small_snapshots[-1:])
    assert calls == [len(small_snapshots) - 1, len(small_snapshots)]
    assert BinaryIndex(binary_index_path(archive)).catalog_hash == archive.catalog_hash()

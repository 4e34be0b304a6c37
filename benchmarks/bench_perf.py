"""Perf-regression harness — the full-size run behind ``repro-roots bench``.

Runs :func:`repro.bench.run_perf_suite` on the complete seeded corpus
and enforces the speedup floors the optimization work claims:

- interned certificate parsing ≥ 2x over parsing every occurrence,
- ``workers=4`` scraping ≥ 1.5x over serial against a latent origin
  (the network-bound shape real collection has; the in-memory numbers
  are recorded but not gated — under the GIL threads cannot speed up
  pure-CPU parsing).

The archive suite (``repro.bench.archive``) rides alongside and
enforces the storage layer's claims:

- a warm point-in-time query batch ≥ 10x faster than the full
  scrape+analyze pass it replaces (the archive's reason to exist),
- re-ingest of an unchanged corpus is byte-idempotent,
- reconstruction from disk is exactly the live dataset,
- the archive-backed distance matrix agrees element-wise with the
  live one, and ``archive verify`` reports a healthy archive.

Correctness gates (byte-identical serial/parallel output) are enforced
unconditionally; the distance kernel's exactness against the per-pair
oracle is a tier-1 test.  The resulting
``BENCH_ordination.json`` / ``BENCH_archive.json`` are the committed
perf records; regenerate them with ``repro-roots bench`` and
``repro-roots archive bench`` after perf-relevant changes.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.bench import is_smoke_mode, run_archive_suite, run_perf_suite


def test_perf_suite(benchmark, dataset, capsys, tmp_path):
    output = tmp_path / "BENCH_ordination.json"
    suite = benchmark.pedantic(
        run_perf_suite,
        args=(dataset,),
        kwargs={"workers": 4, "output": output},
        rounds=1,
        iterations=1,
    )
    results = suite.results

    emit(capsys, "\n".join(suite.summary_lines()))

    # Correctness gates hold in every mode.
    assert results["scrape"]["identical"] is True
    assert output.exists()

    if is_smoke_mode():
        return  # tiny inputs: timing ratios are noise, stop at correctness

    assert results["intern"]["speedup"] >= 2.0, (
        "certificate intern pool lost its >=2x margin: "
        f"{results['intern']['speedup']:.1f}x"
    )
    assert results["scrape"]["latent_speedup"] >= 1.5, (
        "parallel scraping lost its >=1.5x margin against a latent origin: "
        f"{results['scrape']['latent_speedup']:.2f}x"
    )


def test_archive_suite(benchmark, dataset, capsys, tmp_path):
    output = tmp_path / "BENCH_archive.json"
    suite = benchmark.pedantic(
        run_archive_suite,
        args=(dataset,),
        kwargs={"output": output},
        rounds=1,
        iterations=1,
    )
    results = suite.results

    emit(capsys, "\n".join(suite.summary_lines()))

    # Correctness gates hold in every mode.
    assert results["ingest"]["idempotent"] is True
    assert results["reconstruct"]["identical"] is True
    assert results["distance"]["max_abs_diff"] <= 1e-12
    assert results["distance"]["labels_match"] is True
    assert results["verify"]["ok"] is True
    assert output.exists()

    if is_smoke_mode():
        return  # tiny inputs: timing ratios are noise, stop at correctness

    assert results["query"]["speedup_vs_scrape"] >= 10.0, (
        "warm archive queries lost their >=10x margin over scrape+analyze: "
        f"{results['query']['speedup_vs_scrape']:.1f}x"
    )
    assert results["query"]["warm_speedup"] >= 2.0, (
        "LRU caches stopped paying for themselves: warm query batch only "
        f"{results['query']['warm_speedup']:.1f}x over cold"
    )
    assert results["reconstruct"]["warm_speedup"] >= 2.0, (
        "snapshot cache lost its >=2x reconstruct margin: "
        f"{results['reconstruct']['warm_speedup']:.1f}x"
    )

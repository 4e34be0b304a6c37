"""Serving-layer benchmark — the full-size run behind
``archive bench-serving``.

Runs :func:`repro.bench.run_serving_suite` on the complete seeded
corpus and enforces the serving promises:

- the ``trust.bin`` cold start (header read + mmap) beats the full
  checksummed decode of the same file by ≥ 10x, and
- a batched daemon round trip at concurrency 1 stays within 5x of the
  same warm in-process ``trusted_on_many`` batch.

The floors apply in full mode only; query equivalence is gated in
``tests/test_serving.py``, not here.  The committed
``BENCH_serving.json`` is the capacity record quoted by
``docs/serving.md``; regenerate it with
``repro-roots archive bench-serving`` after changes to the codec, the
query engine, or the daemon.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.bench import is_smoke_mode, run_serving_suite
from repro.bench.serving import MAX_DAEMON_OVERHEAD, MIN_COLD_SPEEDUP


def test_serving_suite(benchmark, dataset, capsys, tmp_path):
    output = tmp_path / "BENCH_serving.json"
    suite = benchmark.pedantic(
        run_serving_suite,
        args=(dataset,),
        kwargs={"output": output},
        rounds=1,
        iterations=1,
    )
    results = suite.results

    emit(capsys, "\n".join(suite.summary_lines()))

    assert len(results["daemon"]["levels"]) >= 3
    assert output.exists()

    if is_smoke_mode():
        return  # tiny inputs: the timing ratios are noise, stop at the shape checks

    cold = results["cold_start"]
    assert cold["floor"]["met"] is True, (
        f"binary-index cold start {cold['speedup']:.1f}x fell below the "
        f"{MIN_COLD_SPEEDUP:.0f}x floor (full decode {cold['decode_s'] * 1e3:.2f} ms, "
        f"header open {cold['binary_s'] * 1e3:.3f} ms)"
    )
    overhead = results["daemon"]["overhead"]
    assert overhead["floor"]["met"] is True, (
        f"daemon batch overhead {overhead['ratio']:.2f}x exceeded the "
        f"{MAX_DAEMON_OVERHEAD:.0f}x floor over warm in-process"
    )

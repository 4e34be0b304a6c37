"""The repo benchmark: one command per workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload serve --seed 0 --seconds 6 --trace 0

Workloads (see each module's docstring): ``serve`` (daemon read path),
``watch`` (continuous ingestion, the write path) and ``ordination``
(archive-backed landmark ordination and Figure 1).  All three, one
after another::

    for w in serve watch ordination; do python3 perfbench/run.py --workload $w; done

With ``--trace 0`` the run measures end to end and prints, as its last
line, the BENCHMARK.json ``end_to_end`` metrics.  Each is one role that
every workload fills with its own user-visible number:

============= ===================== ===================== =========================
metric        serve                 watch                 ordination
============= ===================== ===================== =========================
setup_s       corpus, archive,      corpus, 11 published  corpus, population,
              daemon start (x2)     origins, catch-up     archive ingest
p50_ms        batch round trip      commit cycle          landmark pass
p90_ms        batch round trip      commit cycle          landmark pass
throughput_   batches/s             snapshots/s           snapshots ordinated/s
per_s
query_p50_ms  same batches, in      fresh 32-fingerprint  Figure-1 pass
              process               probe after commit
memory_mb     max worker PSS        benchmark process PSS peak RSS, one-pass child
============= ===================== ===================== =========================

With ``--trace 1`` the run also installs the layer wrappers
(:mod:`tracer`) on alternate units of work and prints the
:data:`layers.PER_LAYER` metrics, each beside the end-to-end metric it
should move, plus tracing overhead and layer coverage.

A failed output check prints ``"correct": false`` and exits 1.  The
deterministic counts of a run are kept under ``.perfbench/counts`` and
must repeat exactly on the next run of the same workload and seed.
Without the program's sources next to it the benchmark exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, WORK, Workdir  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("serve", "watch", "ordination")


def _benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [row[:3] for row in PER_LAYER]:
        raise SystemExit("BENCHMARK.json per_layer does not match perfbench/layers.py")
    return spec


def _check_counts(workload: str, seed: int, trace: bool, counts: dict) -> bool:
    """Counts must repeat exactly across runs of one workload and seed."""
    path = WORK / "counts" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    current = json.loads(json.dumps(counts, sort_keys=True))
    if path.exists():
        return json.loads(path.read_text()) == current
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True, indent=1) + "\n")
    return True


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so daemons and children get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = _benchmark_spec()
    trace = bool(args.trace)

    module = importlib.import_module(args.workload)
    record = next(w for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {record['why']}")
    for key, value in module.DESCRIPTION.items():
        print(f"  {key}: {value}")

    try:
        with Workdir(args.workload) as workdir:
            result = module.run(args.seed, args.seconds, trace, workdir)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for note in result.notes:
        print(f"  {note}")
    result.check("counts repeat exactly for this seed",
                 _check_counts(args.workload, args.seed, trace, result.counts))
    print("checks:")
    for name, ok in result.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print("end to end (untraced):")
    for name, value, unit, samples in result.report:
        count = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<34} {_fmt(value):>14} {unit}{count}")
    print("counts:")
    for name, value in result.counts.items():
        print(f"  {name:<34} {value}")

    if trace:
        rows = {name: (unit, target) for name, unit, _, target in PER_LAYER}
        print("per layer (traced)                     value      unit   n       moves")
        for name in module.LAYERS:
            unit, target = rows[name]
            samples = result.layer_samples.get(name)
            n = "" if samples is None else str(samples)
            print(f"  {name:<36} {_fmt(result.layers[name]):>12} {unit:<6} {n:<7} {target}")
        print("span tree by name            calls   inclusive s    self s")
        for name, calls, total, own in result.tracer.layer_table():
            print(f"  {name:<36} {calls:>7} {total:>11.4f} {own:>9.4f}")
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        result.tracer.dump(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
        metrics = {
            name: {"value": result.layers.get(name, 0), "unit": unit}
            for name, unit, _, _ in PER_LAYER
        }
    else:
        metrics = {
            m["name"]: {"value": result.end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    correct = all(result.checks.values()) and all(
        m["value"] is None or math.isfinite(m["value"]) for m in metrics.values()
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

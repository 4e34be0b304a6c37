"""Shared plumbing: paths, statistics, /proc probes and the result record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in; the program is imported from its
#: ``src`` directory.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for archives, span dumps and the per-seed count record.
WORK = ROOT / ".perfbench"

#: The ten providers of the paper's corpus (Figure 1 ordinates these).
PAPER_PROVIDERS = (
    "alpine", "amazonlinux", "android", "apple", "debian",
    "java", "microsoft", "nodejs", "nss", "ubuntu",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations) count
    as misses, so they sort above every latency."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def pss_mb(pid: int) -> float | None:
    """Proportional set size of one process, or None where /proc lacks it."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) / 1024
    return None


def wchar() -> int | None:
    """Bytes this process has passed to write() so far (None off Linux)."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return None


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Workdir:
    """A per-run directory under :data:`WORK`, removed when the run ends."""

    def __init__(self, workload: str):
        self.path = WORK / f"run-{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Result:
    """What one workload run reports back to ``run.py``.

    ``end_to_end`` maps the BENCHMARK.json metric names to values;
    ``report`` holds the workload's own named lines (the issue-level
    metric names with units and sample counts); ``layers`` holds the
    per-layer metrics a traced run measured; ``counts`` holds the
    deterministic counts that must repeat exactly for one seed.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float | None] = field(default_factory=dict)
    report: list[tuple[str, object, str, int | None]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    layer_samples: dict[str, int] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    #: The traced run's tracer, whose spans run.py tabulates and writes out.
    tracer: object = None
    notes: list[str] = field(default_factory=list)

    def line(self, name: str, value, unit: str, samples: int | None = None) -> None:
        self.report.append((name, value, unit, samples))

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

"""The one bench runner: every suite is a declaration, run the same way.

A :class:`Suite` names its fixed ``BENCH_*.json`` file, a
``run(dataset, smoke) -> dict`` callable holding its measuring code, and
its :class:`Floor` tuple.  Everything the suites share lives here:

- smoke resolution (``smoke=None`` reads :data:`SMOKE_ENV`);
- the result envelope (``schema`` and ``mode``) and the JSON write;
- the ``repro_bench_section_seconds`` gauge, one per ``*_s`` leaf, so
  bench runs surface through ``obs report`` like production timings;
- one summary renderer that prints every leaf of the results;
- the floor check.

Timing uses ``time.perf_counter`` — the bench layer is the one place
the repository's "no wall-clock" rule does not apply, because wall
clock *is* the measurand.  Reached through ``repro-roots bench`` and
``benchmarks/bench_suites.py``.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.obs.instrument import set_gauge
from repro.simulation import default_corpus
from repro.store.history import Dataset, StoreHistory

#: Environment toggle: tiny inputs, correctness gates only.
SMOKE_ENV = "REPRO_BENCH_SMOKE"

_OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt, "==": operator.eq}


@dataclass(frozen=True)
class Floor:
    """``results[path] <op> bound``, a dotted path into the results.

    An ``always`` floor is a correctness gate, checked in smoke mode
    too; the others are timing ratios, meaningful only at full size.
    """

    path: str
    op: str = "=="
    bound: object = True
    always: bool = False

    def holds(self, results: dict) -> bool:
        return _OPS[self.op](resolve(results, self.path), self.bound)

    def __str__(self) -> str:
        return f"{self.path} {self.op} {self.bound}"


@dataclass(frozen=True)
class Suite:
    """A bench suite: its name, fixed ``BENCH_*.json`` file, measuring code and floors."""

    name: str
    output: str
    run: Callable[[Dataset, bool], dict]
    floors: tuple[Floor, ...] = ()


def is_smoke(smoke: bool | None = None) -> bool:
    """``smoke`` if given, else whether :data:`SMOKE_ENV` is ``"1"``."""
    if smoke is not None:
        return smoke
    return os.environ.get(SMOKE_ENV, "") == "1"


def timed(fn: Callable[[], object], *, rounds: int = 1) -> tuple[float, object]:
    """Best-of-``rounds`` wall time plus the last return value."""
    best = float("inf")
    value: object = None
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def smoke_dataset(dataset: Dataset, *, providers: int = 2, snapshots: int = 6) -> Dataset:
    """A tiny sub-corpus: the first ``providers``, ``snapshots`` each."""
    trimmed = Dataset()
    for provider in dataset.providers[:providers]:
        kept = list(dataset[provider].snapshots)[:snapshots]
        trimmed.add_history(StoreHistory(provider, snapshots=kept))
    return trimmed


def resolve(results: dict, path: str) -> object:
    """The value at dotted ``path``; integer parts index lists."""
    value: object = results
    for part in path.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


def leaves(value: object, prefix: str = "") -> Iterator[tuple[str, object]]:
    """Every (dotted path, scalar) in ``value``; lists of dicts by index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        items = enumerate(value)
    else:
        yield prefix, value
        return
    for key, child in items:
        yield from leaves(child, f"{prefix}.{key}" if prefix else str(key))


def run_suite(
    suite: Suite, *, smoke: bool | None = None, output_dir: Path | str | None = None
) -> dict:
    """Run ``suite`` on the default corpus; write ``output_dir / suite.output``."""
    smoke = is_smoke(smoke)
    results = {"schema": 1, "mode": "smoke" if smoke else "full"}
    results.update(suite.run(default_corpus().dataset, smoke))
    for path, value in leaves(results):
        if path.endswith("_s") and isinstance(value, (int, float)):
            set_gauge("repro_bench_section_seconds", value, suite=suite.name, section=path)
    if output_dir is not None:
        target = Path(output_dir) / suite.output
        target.write_text(json.dumps(results, indent=2) + "\n")
    return results


def broken_floors(suite: Suite, results: dict) -> list[Floor]:
    """The floors ``results`` breaks; full-only floors skip smoke runs."""
    checked = results["mode"] == "full"
    return [
        floor
        for floor in suite.floors
        if (floor.always or checked) and not floor.holds(results)
    ]


def summary_lines(suite: Suite, results: dict) -> list[str]:
    """Every result leaf, then every floor with its outcome."""
    rows = [(path, _fmt(value)) for path, value in leaves(results)]
    broken = broken_floors(suite, results)
    for floor in suite.floors:
        if floor in broken:
            outcome = "BROKEN"
        elif floor.always or results["mode"] == "full":
            outcome = "met"
        else:
            outcome = "not checked in smoke mode"
        rows.append((f"floor {floor}", outcome))
    width = max(len(label) for label, _ in rows)
    return [f"{label:<{width}} : {text}" for label, text in rows]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return ", ".join(_fmt(item) for item in value) or "-"
    return str(value)

"""Render a ``--metrics-out`` dump as the ``obs report`` summary.

The input is the JSON document :meth:`repro.obs.runtime.Telemetry.dump`
writes: a metrics snapshot plus any captured root-span trees.  The
report answers the operational questions the layer exists for: where
did the time go per stage, what failed and where, and are the caches
earning their keep.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ObservabilityError


def load_dump(path: Path | str) -> dict:
    """Read and validate a metrics dump written by ``--metrics-out``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ObservabilityError(f"no metrics file at {path}") from exc
    except ValueError as exc:
        raise ObservabilityError(f"metrics file {path} is not valid JSON: {exc}") from exc
    if isinstance(payload, list):  # bare registry snapshot
        payload = {"schema": 1, "metrics": payload, "spans": []}
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise ObservabilityError(f"metrics file {path} has no 'metrics' section")
    metrics = payload["metrics"]
    if not isinstance(metrics, list) or not all(isinstance(f, dict) for f in metrics):
        raise ObservabilityError(
            f"metrics file {path} is malformed: 'metrics' must be a list of metric families"
        )
    spans = payload.get("spans", [])
    if not isinstance(spans, list):
        raise ObservabilityError(
            f"metrics file {path} is malformed: 'spans' must be a list of span trees"
        )
    return payload


def _series(metrics: list[dict], name: str) -> list[dict]:
    for family in metrics:
        if family.get("name") == name:
            return family.get("series", [])
    return []


def _fmt_seconds(seconds: float) -> str:
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _histogram_rows(series: list[dict], label: str) -> list[tuple]:
    rows = []
    for entry in series:
        count = entry["count"]
        total = entry["sum"]
        mean = total / count if count else 0.0
        rows.append(
            (entry["labels"].get(label, "-"), count, _fmt_seconds(mean), _fmt_seconds(total))
        )
    return rows


def _counter_matrix(series: list[dict], row_label: str, col_label: str) -> dict[str, dict[str, float]]:
    matrix: dict[str, dict[str, float]] = {}
    for entry in series:
        row = entry["labels"].get(row_label, "-")
        col = entry["labels"].get(col_label, "-")
        matrix.setdefault(row, {})[col] = matrix.setdefault(row, {}).get(col, 0) + entry["value"]
    return matrix


def _span_aggregate(spans: list[dict]) -> dict[str, tuple[int, float, int]]:
    """name -> (count, total duration, errors), over every span in every tree."""
    totals: dict[str, tuple[int, float, int]] = {}
    def visit(node: dict) -> None:
        count, duration, errors = totals.get(node["name"], (0, 0.0, 0))
        totals[node["name"]] = (
            count + 1,
            duration + node.get("duration", 0.0),
            errors + (1 if node.get("status") == "error" else 0),
        )
        for child in node.get("children", ()):
            visit(child)
    for tree in spans:
        visit(tree)
    return totals


def report_lines(dump: dict) -> list[str]:
    """The full ``obs report`` rendering, one output line per entry.

    A structurally-malformed dump (series entries missing ``count`` /
    ``labels``, non-dict spans, ...) surfaces as
    :class:`~repro.errors.ObservabilityError` — the CLI's central error
    mapping turns that into a one-line stderr message instead of a
    traceback.
    """
    try:
        return _report_lines(dump)
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ObservabilityError(
            f"metrics dump is malformed ({exc.__class__.__name__}: {exc})"
        ) from exc


def _report_lines(dump: dict) -> list[str]:
    from repro.analysis.report import render_table

    metrics = dump["metrics"]
    lines: list[str] = []

    scrape = _series(metrics, "repro_collection_scrape_seconds")
    if scrape:
        lines.append(render_table(
            ("Provider", "Scrapes", "Mean", "Total"),
            _histogram_rows(scrape, "provider"),
            title="Per-provider scrape latency",
        ))
    tags = _counter_matrix(_series(metrics, "repro_collection_tags_total"), "provider", "status")
    if tags:
        statuses = ("ok", "salvaged", "quarantined", "duplicate")
        rows = [
            (provider, *(int(tags[provider].get(s, 0)) for s in statuses))
            for provider in sorted(tags)
        ]
        lines.append(render_table(
            ("Provider", "OK", "Salvaged", "Quarantined", "Duplicate"),
            rows, title="Collection outcomes",
        ))
    retries = _series(metrics, "repro_collection_retries_total")
    if any(entry["value"] for entry in retries):
        for entry in retries:
            if entry["value"]:
                lines.append(
                    f"retries: {entry['labels'].get('provider', '-')} "
                    f"x{int(entry['value'])}"
                )

    parses = _counter_matrix(_series(metrics, "repro_formats_parse_total"), "codec", "outcome")
    if parses:
        seconds = {
            entry["labels"].get("codec", "-"): entry
            for entry in _series(metrics, "repro_formats_parse_seconds")
        }
        rows = []
        for codec in sorted(parses):
            ok = int(parses[codec].get("ok", 0))
            errors = int(parses[codec].get("error", 0))
            timing = seconds.get(codec)
            mean = (timing["sum"] / timing["count"]) if timing and timing["count"] else 0.0
            rows.append((codec, ok, errors, _fmt_seconds(mean)))
        lines.append(render_table(
            ("Codec", "OK", "Errors", "Mean parse"), rows, title="Codec parses",
        ))

    journal = _series(metrics, "repro_archive_journal_seconds")
    commit = _series(metrics, "repro_archive_commit_seconds")
    if journal or commit:
        rows = _histogram_rows(journal, "phase")
        for entry in commit:
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            rows.append(("commit", count, _fmt_seconds(mean), _fmt_seconds(entry["sum"])))
        lines.append(render_table(
            ("Phase", "Records", "Mean", "Total"), rows, title="Archive journal/commit",
        ))
    snapshots = _counter_matrix(_series(metrics, "repro_archive_snapshots_total"), "outcome", "outcome")
    if snapshots:
        summary = ", ".join(
            f"{int(values.get(outcome, 0))} {outcome}"
            for outcome, values in sorted(snapshots.items())
        )
        lines.append(f"ingest snapshots: {summary}")

    caches = _counter_matrix(_series(metrics, "repro_archive_cache_total"), "cache", "outcome")
    if caches:
        rows = []
        for cache in sorted(caches):
            hits = int(caches[cache].get("hit", 0))
            misses = int(caches[cache].get("miss", 0))
            total = hits + misses
            rate = f"{hits / total * 100:.1f}%" if total else "-"
            rows.append((cache, hits, misses, rate))
        lines.append(render_table(
            ("Cache", "Hits", "Misses", "Hit rate"), rows, title="Query cache",
        ))

    skips = _series(metrics, "repro_archive_degraded_skips_total")
    for entry in skips:
        lines.append(
            f"degraded skips: {entry['labels'].get('provider', '-')} "
            f"x{int(entry['value'])}"
        )
    stale = _series(metrics, "repro_archive_stale_detected_total")
    for entry in stale:
        lines.append(
            f"stale catalog detected ({entry['labels'].get('action', '-')}): "
            f"x{int(entry['value'])}"
        )

    stages = _series(metrics, "repro_analysis_stage_seconds")
    if stages:
        lines.append(render_table(
            ("Stage", "Runs", "Mean", "Total"),
            _histogram_rows(stages, "stage"),
            title="Analysis stages",
        ))

    scenario_stages = _series(metrics, "repro_scenario_stage_seconds")
    if scenario_stages:
        lines.append(render_table(
            ("Stage", "Runs", "Mean", "Total"),
            _histogram_rows(scenario_stages, "stage"),
            title="Scenario stages",
        ))
    chains = _counter_matrix(_series(metrics, "repro_scenario_chains_total"), "outcome", "outcome")
    if chains:
        summary = ", ".join(
            f"{int(values.get(outcome, 0))} {outcome}"
            for outcome, values in sorted(chains.items())
        )
        lines.append(f"scenario chains: {summary}")
    scenario_cache = _counter_matrix(_series(metrics, "repro_scenario_cache_total"), "outcome", "outcome")
    if scenario_cache:
        summary = ", ".join(
            f"{int(values.get(outcome, 0))} {outcome}"
            for outcome, values in sorted(scenario_cache.items())
        )
        lines.append(f"scenario cell cache: {summary}")
    pool = _series(metrics, "repro_scenario_pool_workers")
    for entry in pool:
        lines.append(f"scenario pool workers: {int(entry['value'])}")

    bench = _series(metrics, "repro_bench_section_seconds")
    if bench:
        rows = [
            (
                entry["labels"].get("suite", "-"),
                entry["labels"].get("section", "-"),
                _fmt_seconds(entry["value"]),
            )
            for entry in bench
        ]
        lines.append(render_table(
            ("Suite", "Section", "Seconds"), rows, title="Bench sections",
        ))

    spans = dump.get("spans", [])
    totals = _span_aggregate(spans)
    if totals:
        rows = [
            (name, count, errors, _fmt_seconds(duration))
            for name, (count, duration, errors) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]
            )
        ]
        lines.append(render_table(
            ("Span", "Count", "Errors", "Total time"),
            rows, title=f"Trace spans ({len(spans)} root trees)",
        ))

    if not lines:
        lines.append("no recognized metrics in dump (empty session?)")
    return lines

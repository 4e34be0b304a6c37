"""The ``repro-roots`` command line interface.

Subcommands map one-to-one onto the paper's experiments::

    repro-roots dataset              # Table 2
    repro-roots user-agents          # Table 1
    repro-roots hygiene              # Table 3
    repro-roots removals             # Table 4
    repro-roots nss-removals         # Table 7
    repro-roots exclusives           # Table 6
    repro-roots families             # Figure 1 (clusters + MDS stress)
    repro-roots ecosystem            # Figure 2
    repro-roots staleness            # Figure 3
    repro-roots deviations           # Figure 4
    repro-roots software             # Table 5
    repro-roots publish PROVIDER DIR # write native artifacts to disk
    repro-roots scrape PROVIDER DIR  # parse artifacts back
    repro-roots collect              # end-to-end collection (+ fault injection)
    repro-roots watch DIR            # continuous ingestion: checkpointed watch loop
    repro-roots serve DIR            # batched trust-query daemon over the archive
    repro-roots bench [SUITE ...]    # bench suites -> BENCH_<suite>.json, floors
                                     #   checked (--smoke: tiny inputs, gates only)
    repro-roots archive ...          # on-disk archive: ingest|query|diff|index-dump|
                                     #   verify|gc|repair
    repro-roots scenario ...         # what-if engine: run|diff|report over an
                                     #   archive (distrust/remove/revoke edits ->
                                     #   population impact)
    repro-roots obs report FILE      # render a --metrics-out telemetry dump

Every subcommand accepts ``--metrics-out PATH`` to capture the run's
telemetry (metrics + trace spans) as JSON for ``obs report``.

Every experiment regenerates deterministically from the built-in seed.
Errors from the collection, validation, store, and archive layers exit
with status 1 and a one-line ``error:`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path

from repro.analysis import (
    cluster_families,
    collect_snapshots,
    corpus_classifier,
    deviation_report,
    distance_matrix,
    exclusives_report,
    find_outliers,
    hygiene_report,
    kruskal_stress,
    nss_removal_report,
    rank_by_hygiene,
    render_table,
    response_report,
    smacof,
    staleness_report,
)
from repro.collection import scrape_history, write_tree
from repro.collection.sources import SourceRepository, read_tree
from repro.errors import (
    ArchiveError,
    CollectionError,
    ObservabilityError,
    StoreError,
    ValidationError,
)
from repro.obs.export import InMemoryExporter
from repro.obs.runtime import telemetry_session
from repro.simulation import default_corpus
from repro.store import NSS_DERIVATIVES, PROVIDERS, TrustPurpose
from repro.useragents import (
    POPULATION,
    coverage_fraction,
    sample_top_200,
    surveyed_counts,
    trace_user_agents,
)
from repro.useragents.software import SOFTWARE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    handler = globals()[f"_cmd_{args.command.replace('-', '_')}"]
    try:
        result = _run_with_telemetry(handler, args)
    except (ArchiveError, CollectionError, ObservabilityError, StoreError, ValidationError) as exc:
        # Operational failures (unscrapable origin, corrupt archive,
        # invalid chain input) are user-facing outcomes, not bugs: one
        # line on stderr and a nonzero exit, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


def _run_with_telemetry(handler, args):
    """Run a subcommand, capturing its telemetry when ``--metrics-out`` asks.

    The whole handler runs inside an isolated :func:`telemetry_session`
    with an in-memory trace exporter; the session dump is written even
    when the handler fails, so a crashed run still leaves its metrics
    behind for ``obs report``.
    """
    metrics_out: Path | None = getattr(args, "metrics_out", None)
    if metrics_out is None:
        return handler(args)
    with telemetry_session(exporter=InMemoryExporter()) as telemetry:
        try:
            return handler(args)
        finally:
            metrics_out.write_text(
                json.dumps(telemetry.dump(), indent=2, sort_keys=True) + "\n"
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-roots",
        description="Tracing Your Roots (IMC 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("dataset", "Table 2: dataset summary"),
        ("user-agents", "Table 1: top-200 UA coverage"),
        ("hygiene", "Table 3: root store hygiene"),
        ("removals", "Table 4: high-severity removal response lags"),
        ("nss-removals", "Table 7: NSS removal catalog"),
        ("exclusives", "Table 6: program-exclusive roots"),
        ("families", "Figure 1: ordination clusters"),
        ("ecosystem", "Figure 2: inverted pyramid"),
        ("staleness", "Figure 3: derivative staleness"),
        ("deviations", "Figure 4: derivative deviation taxonomy"),
        ("software", "Table 5: software root store survey"),
        ("purposes", "extension: multi-purpose store exposure"),
        ("cross-sign", "extension: the Certinomis/StartCom resurrection"),
        ("minimize", "extension: minimal root set over Zipf traffic"),
        ("agility", "extension: release cadence and projected exposure"),
        ("lint", "extension: BR lint census over the root programs"),
        ("scorecard", "extension: composite root program scorecard"),
    ):
        sub.add_parser(name, help=help_text)
    validate = sub.add_parser(
        "validate", help="validate a synthetic leaf against every store at a date"
    )
    validate.add_argument("domain", help="DNS name for the synthetic leaf")
    validate.add_argument("--issuer", default="common-d2", help="catalog slug of the issuing root")
    validate.add_argument("--date", default="2020-06-01", help="validation date (YYYY-MM-DD)")
    validate.add_argument("--issued", default="2020-01-01", help="leaf notBefore (YYYY-MM-DD)")
    publish = sub.add_parser("publish", help="write a provider's native artifacts to disk")
    publish.add_argument("provider", choices=sorted(PROVIDERS))
    publish.add_argument("directory", type=Path)
    publish.add_argument("--last", type=int, default=1, help="how many recent snapshots")
    scrape = sub.add_parser("scrape", help="parse a published artifact tree")
    scrape.add_argument("provider", choices=sorted(PROVIDERS))
    scrape.add_argument("directory", type=Path)
    collect = sub.add_parser(
        "collect",
        help="publish every provider to a simulated origin and scrape it back, "
        "optionally injecting seeded faults",
    )
    mode = collect.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict", dest="strict", action="store_true",
        help="fail fast on the first collection error (default)",
    )
    mode.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="quarantine failed snapshots and salvage damaged artifacts",
    )
    collect.set_defaults(strict=True)
    collect.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the CollectionReport as JSON to PATH",
    )
    collect.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="R",
        help="inject seeded faults into this fraction of tags (0 disables)",
    )
    collect.add_argument(
        "--fault-seed", default="collect", metavar="SEED",
        help="seed for the deterministic fault plan",
    )
    collect.add_argument(
        "--providers", nargs="+", default=None, choices=sorted(PROVIDERS), metavar="P",
        help="restrict collection to these providers",
    )
    collect.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="scrape each provider's tags on a pool of N threads "
        "(output is deterministic and identical to serial)",
    )
    collect.add_argument(
        "--archive", type=Path, default=None, metavar="DIR",
        help="persist collected histories into the on-disk archive at DIR "
        "as scraping completes (created if missing)",
    )
    watch = sub.add_parser(
        "watch",
        help="supervised continuous ingestion: poll every origin, ingest new tags "
        "into the archive at DIR, checkpoint, repeat for a bounded cycle count",
    )
    watch.add_argument("directory", type=Path, metavar="DIR")
    watch.add_argument(
        "--cycles", type=int, default=3, metavar="N",
        help="bounded number of watch cycles to run (default: 3)",
    )
    watch.add_argument(
        "--hold-back", type=int, default=2, metavar="K",
        help="tags per origin initially unpublished; one more is revealed "
        "before each later cycle (default: 2)",
    )
    watch.add_argument(
        "--providers", nargs="+", default=None, choices=sorted(PROVIDERS), metavar="P",
        help="restrict the watch to these providers",
    )
    watch.add_argument(
        "--ct-logs", nargs="+", default=["argon"], metavar="LOG",
        help="also watch these simulated CT accepted-roots feeds (default: argon)",
    )
    watch.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="R",
        help="inject seeded faults into this fraction of tags (0 disables)",
    )
    watch.add_argument(
        "--fault-seed", default="watch", metavar="SEED",
        help="seed for the deterministic fault plan",
    )
    watch.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the WatchReport as JSON to PATH",
    )
    watch.add_argument(
        "--force-unlock", action="store_true",
        help="break a stale writer lock during startup repair even if its "
        "holder appears alive",
    )
    serve = sub.add_parser(
        "serve",
        help="serve batched trust queries over the archive at DIR from "
        "pre-forked workers sharing the mmap'd binary index",
    )
    serve.add_argument("directory", type=Path, metavar="DIR")
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="port to bind (default: 0 = pick a free port and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="pre-forked worker processes (default: 2)",
    )
    serve.add_argument(
        "--batch-limit", type=int, default=1024, metavar="N",
        help="most fingerprints one batch request may probe (default: 1024)",
    )
    serve.add_argument(
        "--check", action="store_true",
        help="start, verify /healthz, print the address, and exit "
        "(CI smoke instead of serving forever)",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="restart dead workers (per-slot backoff and a restart budget; "
        "a crash storm trips the slot and /healthz reports degraded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long a SIGTERM drain may spend finishing in-flight "
        "requests before stragglers are force-killed (default: 5)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=0, metavar="N",
        help="per-worker in-flight admission limit; over it requests are "
        "shed with 503 + Retry-After (default: 0 = unbounded)",
    )
    serve.add_argument(
        "--request-deadline", type=float, default=0.0, metavar="SECONDS",
        help="per-request batch deadline budget; slots past it answer a "
        "typed error instead of stalling the batch (default: 0 = none)",
    )
    bench = sub.add_parser(
        "bench",
        help="run bench suites, write BENCH_<suite>.json and check their floors "
        "(exit 1 when one breaks)",
    )
    bench.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help="suites to run (default: all of them)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, correctness gates only (also via REPRO_BENCH_SMOKE=1)",
    )
    bench.add_argument(
        "--output-dir", type=Path, default=Path("."), metavar="DIR",
        help="where BENCH_<suite>.json files are written (default: .)",
    )
    _add_archive_parser(sub)
    _add_scenario_parser(sub)
    obs = sub.add_parser(
        "obs", help="inspect telemetry dumps written by --metrics-out"
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = osub.add_parser(
        "report", help="render a telemetry dump as human-readable tables"
    )
    obs_report.add_argument("path", type=Path, metavar="FILE")
    _add_metrics_out_flags(parser)
    return parser


def _add_metrics_out_flags(parser: argparse.ArgumentParser) -> None:
    """Give every leaf subcommand the ``--metrics-out`` flag.

    Walks the subparser tree so a command added later is covered
    automatically — the flag is a property of the CLI, not of any one
    handler.
    """
    subparser_actions = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subparser_actions:
        parser.add_argument(
            "--metrics-out", type=Path, default=None, metavar="PATH",
            help="write this run's telemetry (metrics + trace spans) as JSON to PATH",
        )
        return
    for action in subparser_actions:
        seen: set[int] = set()
        for child in action.choices.values():
            if id(child) in seen:  # aliases share one parser object
                continue
            seen.add(id(child))
            _add_metrics_out_flags(child)


def _add_archive_parser(sub) -> None:
    archive = sub.add_parser(
        "archive",
        help="content-addressed on-disk archive: ingest, query, diff, index-dump, "
        "verify, gc, repair",
    )
    asub = archive.add_subparsers(dest="archive_command", required=True)

    ingest = asub.add_parser(
        "ingest", help="ingest the seeded corpus (or a provider subset) into DIR"
    )
    ingest.add_argument("directory", type=Path, metavar="DIR")
    ingest.add_argument(
        "--providers", nargs="+", default=None, choices=sorted(PROVIDERS), metavar="P",
        help="restrict ingest to these providers",
    )

    query = asub.add_parser(
        "query", help="point-in-time trust lookups and snapshot reconstruction from DIR"
    )
    query.add_argument("directory", type=Path, metavar="DIR")
    query.add_argument(
        "--fingerprint", default=None, metavar="F",
        help="certificate SHA-256 (hex); a unique prefix is accepted",
    )
    query.add_argument(
        "--provider", default=None, metavar="P",
        help="reconstruct this provider's snapshot instead of a trust lookup",
    )
    query.add_argument(
        "--date", default=None, metavar="YYYY-MM-DD",
        help="the point in time to resolve (default: each provider's latest)",
    )
    query.add_argument(
        "--purpose", default="server-auth",
        choices=[p.value for p in TrustPurpose] + ["any"],
        help="trust purpose for membership (default: server-auth; 'any' = raw presence)",
    )
    query.add_argument(
        "--degraded", action="store_true",
        help="serve what is intact from a damaged archive, reporting what is not",
    )

    diff = asub.add_parser("diff", help="fingerprint-set diff between two archived stores")
    diff.add_argument("directory", type=Path, metavar="DIR")
    diff.add_argument("provider_a", metavar="PROVIDER_A")
    diff.add_argument("provider_b", metavar="PROVIDER_B")
    diff.add_argument(
        "--date", default=None, metavar="YYYY-MM-DD",
        help="compare the snapshots in force at this date (default: latest)",
    )

    index_dump = asub.add_parser(
        "index-dump", help="print the trust index as one canonical compact JSON document"
    )
    index_dump.add_argument("directory", type=Path, metavar="DIR")

    verify = asub.add_parser(
        "verify", help="integrity pass: re-hash objects, cross-check catalog, list orphans"
    )
    verify.add_argument("directory", type=Path, metavar="DIR")

    gc = asub.add_parser(
        "gc", help="delete orphan objects, manifests, stale temp files and legacy index files"
    )
    gc.add_argument("directory", type=Path, metavar="DIR")
    gc.add_argument("--dry-run", action="store_true", help="report only, delete nothing")

    repair = asub.add_parser(
        "repair",
        help="recover from a crashed ingest: roll journaled transactions forward or "
        "back, quarantine corruption, rebuild indexes",
    )
    repair.add_argument("directory", type=Path, metavar="DIR")
    repair.add_argument(
        "--force-unlock", action="store_true",
        help="break the writer lock even if its holder appears alive",
    )


def _add_scenario_parser(sub) -> None:
    scenario = sub.add_parser(
        "scenario",
        help="what-if incident engine: evaluate store edits (remove, "
        "distrust-after, revoke) against an archive and roll the broken "
        "chains up into population impact",
    )
    ssub = scenario.add_subparsers(dest="scenario_command", required=True)

    def add_selection(parser) -> None:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--scenario", type=Path, default=None, metavar="FILE",
            help="load the scenario from a JSON file",
        )
        source.add_argument(
            "--incident", default=None, metavar="KEY",
            help="replay a registered incident's recorded response schedule "
            "(e.g. certinomis, wosign)",
        )
        source.add_argument(
            "--symantec", action="store_true",
            help="the built-in Symantec phased removal (distrust-after "
            "marking, then both removal batches)",
        )
        parser.add_argument(
            "--providers", nargs="+", default=None, metavar="P",
            help="evaluate only these providers (default: the scenario's, "
            "else every provider in the archive)",
        )
        parser.add_argument(
            "--dates", nargs="+", default=None, metavar="YYYY-MM-DD",
            help="evaluate on these dates (default: the scenario's, else "
            "offsets around each edit)",
        )

    def add_execution(parser) -> None:
        parser.add_argument("directory", type=Path, metavar="DIR")
        parser.add_argument(
            "--ingest", action="store_true",
            help="create DIR and ingest the seeded corpus first if the "
            "archive does not exist yet",
        )
        parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="evaluate grid cells on a pool of N processes "
            "(output is deterministic and identical to serial)",
        )
        parser.add_argument(
            "--no-cache", action="store_true",
            help="skip the per-cell result cache under DIR/cache/scenario",
        )
        parser.add_argument(
            "--chunk-retries", type=int, default=2, metavar="N",
            help="how many times a grid block whose pool worker died is "
            "re-dispatched (split in half per retry) before the sweep "
            "fails; output stays byte-identical to serial (default: 2)",
        )

    run = ssub.add_parser(
        "run", help="evaluate a scenario over the archive's (provider, date) grid"
    )
    add_execution(run)
    add_selection(run)
    run.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the canonical run JSON to PATH (for `scenario report`)",
    )
    run.add_argument(
        "--cells", action="store_true",
        help="also print the per-cell verdict table",
    )

    diff = ssub.add_parser(
        "diff",
        help="run baseline and scenario over the same grid and name which "
        "edits broke (or fixed) which chains",
    )
    add_execution(diff)
    add_selection(diff)

    report = ssub.add_parser(
        "report", help="render a run file written by `scenario run --output`"
    )
    report.add_argument("path", type=Path, metavar="FILE")
    report.add_argument(
        "--cells", action="store_true",
        help="also print the per-cell verdict table",
    )


def _cmd_dataset(_args) -> None:
    corpus = default_corpus()
    rows = []
    for row in corpus.dataset.summary_rows():
        history = corpus.dataset[row["provider"]]
        distinct = len({s.tls_fingerprints() for s in history})
        rows.append(
            (
                row["provider"],
                f"{row['from']:%Y-%m}",
                f"{row['to']:%Y-%m}",
                row["snapshots"],
                distinct,
                row["unique_roots"],
            )
        )
    print(render_table(
        ("Root store", "From", "To", "# SS", "# Uniq states", "# Uniq roots"),
        rows,
        title="Table 2: root store dataset",
    ))
    print(f"\nTotal snapshots: {corpus.dataset.total_snapshots()}")


def _cmd_user_agents(_args) -> None:
    uas = sample_top_200()
    shares = trace_user_agents(uas)
    rows = [(r.os, r.agent, r.versions, "yes" if r.included else "no") for r in POPULATION]
    print(render_table(("OS", "User agent", "# versions", "Included?"), rows,
                       title="Table 1: top-200 user agents"))
    print(f"\nCoverage: {coverage_fraction() * 100:.1f}%")
    for family, count in sorted(shares.by_family.items(), key=lambda kv: -kv[1]):
        print(f"  {family:10s} {count:4d} UAs ({count / shares.total * 100:.0f}%)")


def _cmd_hygiene(_args) -> None:
    corpus = default_corpus()
    rows = []
    report = hygiene_report(corpus.dataset)
    for row in report:
        rows.append(
            (
                row.provider,
                f"{row.average_size:.1f}",
                f"{row.average_expired:.1f}",
                _removal_label(row.md5_removal, row.md5_still_present),
                _removal_label(row.weak_rsa_removal, row.weak_rsa_still_present),
            )
        )
    print(render_table(("Root store", "Avg. size", "Avg. expired", "MD5", "1024-bit RSA"),
                       rows, title="Table 3: root store hygiene"))
    print("\nBest-to-worst hygiene:", " > ".join(rank_by_hygiene(report)))


def _removal_label(when: date | None, still: bool) -> str:
    if still:
        return "still trusted"
    if when is None:
        return "never present"
    return f"{when:%Y-%m}"


def _cmd_removals(_args) -> None:
    corpus = default_corpus()
    fps = {spec.slug: corpus.fingerprint(spec.slug) for spec in corpus.specs}
    revocations = {corpus.fingerprint(s): d for s, d in corpus.apple_revocations.items()}
    report = response_report(corpus.dataset, fps, revocations=revocations)
    for incident, rows in report.items():
        print(f"\n{incident}")
        print(render_table(
            ("Root store", "# certs", "Trusted until", "Lag (days)"),
            (
                (
                    r.provider,
                    r.certs_ever_trusted,
                    r.trusted_until or ("revoked*" if r.revoked_on else "still trusted"),
                    r.lag_label(),
                )
                for r in rows
            ),
        ))


def _cmd_nss_removals(_args) -> None:
    corpus = default_corpus()
    fps = {spec.slug: corpus.fingerprint(spec.slug) for spec in corpus.specs}
    rows = [
        (r.bugzilla_id, r.severity, r.removed_on, r.measured_certs, r.description)
        for r in nss_removal_report(corpus.dataset, fps)
    ]
    print(render_table(("Bugzilla ID", "Severity", "Removed on", "# certs", "Details"),
                       rows, title="Table 7: NSS root removals"))


def _cmd_exclusives(_args) -> None:
    corpus = default_corpus()

    def describe(fingerprint: str) -> str:
        spec = corpus.spec_for_fingerprint(fingerprint)
        return spec.note if spec else ""

    report = exclusives_report(corpus.dataset, describe=describe)
    for program in ("nss", "java", "apple", "microsoft"):
        roots = report.get(program, [])
        print(f"\n{program} ({len(roots)} exclusive)")
        for root in roots:
            print(f"  {root.fingerprint[:8]}  {root.organization:40s} {root.detail}")


def _cmd_families(_args) -> None:
    corpus = default_corpus()
    snapshots = collect_snapshots(corpus.dataset, since=date(2011, 1, 1))
    labelled = distance_matrix(snapshots)
    assignment = cluster_families(labelled)
    print(f"Figure 1: {assignment.cluster_count} clusters "
          f"(dendrogram cut at {assignment.cut_distance:.2f})")
    for cid in sorted(set(assignment.provider_family.values())):
        print(f"  {assignment.family_name(cid):10s} {', '.join(assignment.members(cid))}")
    result = smacof(labelled.matrix, dims=2)
    print(f"SMACOF: stress-1 {kruskal_stress(labelled.matrix, result.embedding):.3f} "
          f"after {result.iterations} iterations")
    print("Outlier snapshots (large consecutive churn):")
    for outlier in find_outliers(corpus.dataset):
        print(f"  {outlier.provider:8s} {outlier.taken_at} "
              f"{outlier.changed} of {outlier.store_size} roots changed")


def _cmd_ecosystem(_args) -> None:
    from repro.analysis import build_ecosystem_graph, pyramid_stats

    uas = sample_top_200()
    graph = build_ecosystem_graph(uas)
    stats = pyramid_stats(graph)
    print("Figure 2: the inverted pyramid")
    print(f"  user agents : {stats.user_agents} ({stats.attributed_user_agents} attributed)")
    print(f"  providers   : {stats.providers}")
    print(f"  programs    : {stats.programs}")
    print(f"  inverted    : {stats.inverted}")
    for program, count in sorted(stats.program_shares.items(), key=lambda kv: -kv[1]):
        print(f"    {program:10s} {count:4d} UAs ({count / stats.user_agents * 100:.0f}%)")


def _cmd_staleness(_args) -> None:
    corpus = default_corpus()
    rows = [
        (s.provider, f"{s.average:.2f}", f"{s.always_behind_fraction * 100:.0f}%")
        for s in staleness_report(corpus.dataset, NSS_DERIVATIVES)
    ]
    print(render_table(("Derivative", "Avg versions behind", "Time behind"),
                       rows, title="Figure 3: NSS derivative staleness"))


def _cmd_deviations(_args) -> None:
    corpus = default_corpus()
    classify = corpus_classifier(corpus)
    for series in deviation_report(corpus.dataset, NSS_DERIVATIVES, classify):
        totals = series.category_totals()
        label = ", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        print(f"{series.provider:12s} max +{series.max_added()} / -{series.max_removed()}  [{label}]")


def _cmd_software(_args) -> None:
    rows = [(str(s.kind), s.name, s.ships_root_store, s.details) for s in SOFTWARE]
    print(render_table(("Kind", "Name", "Root store?", "Details"), rows,
                       title="Table 5: popular OS & TLS software root stores"))
    for kind, (total, shipping) in surveyed_counts().items():
        print(f"  {kind}: {shipping}/{total} ship a root store")


def _cmd_purposes(_args) -> None:
    from repro.analysis import purpose_exposure_report

    corpus = default_corpus()
    providers = ("nss", "microsoft", "apple", "debian", "ubuntu", "alpine", "nodejs", "amazonlinux")
    for label, at in (("latest snapshots", None), ("2016-06 (pre TLS-only shift)", date(2016, 6, 1))):
        rows = [
            (r.provider, r.tls_roots, r.code_signing_roots, r.tls_overreach, r.code_signing_overreach)
            for r in purpose_exposure_report(corpus.dataset, providers, at=at)
        ]
        print(render_table(
            ("Store", "TLS", "Code-sign", "TLS overreach", "Code-sign overreach"),
            rows,
            title=f"Purpose exposure ({label})",
        ))
        print()


def _cmd_cross_sign(_args) -> None:
    from datetime import datetime, timezone

    from repro.verify import ChainValidator, cross_sign, issue_server_leaf, resurrection_window

    corpus = default_corpus()
    dataset = corpus.dataset
    bridge = cross_sign(
        corpus.specs_by_slug["startcom-ca"],
        corpus.specs_by_slug["certinomis-root"],
        corpus.mint,
        not_before=date(2018, 3, 1),
    )
    leaf = issue_server_leaf(
        corpus.specs_by_slug["startcom-ca"], corpus.mint, "resurrected.example",
        not_before=datetime(2018, 6, 1, tzinfo=timezone.utc),
    )
    store = dataset["nss"].at(date(2018, 9, 1))
    at = datetime(2018, 9, 1, tzinfo=timezone.utc)
    direct = ChainValidator(store=store).validate(leaf, at)
    bridged = ChainValidator(store=store, intermediates=[bridge]).validate(leaf, at)
    print("StartCom leaf under NSS (2018-09):")
    print(f"  direct path : {'valid' if direct.valid else direct.reason}")
    print(f"  via cross-sign: {'valid (anchor: ' + bridged.anchor.subject.common_name + ')' if bridged.valid else bridged.reason}")
    startcom = [corpus.fingerprint(s) for s in ("startcom-ca", "startcom-ca-g2", "startcom-ca-g3")]
    certinomis = corpus.fingerprint("certinomis-root")
    rows = []
    for provider in ("nss", "nodejs", "alpine", "debian", "android", "amazonlinux", "microsoft"):
        window = resurrection_window(dataset[provider], startcom, certinomis, date(2018, 3, 1))
        rows.append((provider, f"{window.exposure_days}{'+' if window.open_ended else ''}"))
    print(render_table(("Root store", "Bypass exposure (days)"), rows))


def _cmd_minimize(_args) -> None:
    from repro.analysis import minimal_root_set, zipf_traffic

    corpus = default_corpus()
    rows = []
    for provider in ("nss", "apple", "microsoft", "java"):
        snapshot = corpus.dataset[provider].latest()
        traffic = zipf_traffic(snapshot, seed=f"traffic-{provider}")
        for target in (0.9, 0.99):
            result = minimal_root_set(snapshot, traffic, target=target)
            rows.append(
                (provider, f"{target * 100:.0f}%", f"{result.selected_count}/{result.store_size}",
                 f"{result.unused_fraction * 100:.0f}%")
            )
    print(render_table(
        ("Store", "Coverage", "Roots needed", "Unused"),
        rows,
        title="Minimal root sets (greedy cover, Zipf traffic)",
    ))


def _cmd_agility(_args) -> None:
    from repro.analysis.agility import agility_report

    corpus = default_corpus()
    providers = ("nss", "microsoft", "apple", "alpine", "amazonlinux", "android",
                 "debian", "nodejs", "ubuntu")
    rows = [
        (
            p.provider,
            p.releases,
            f"{p.mean_gap:.0f}",
            f"{p.max_gap:.0f}",
            p.substantial_releases,
            f"{p.mean_substantial_gap:.0f}",
            f"{p.projected_response_days:.0f}",
        )
        for p in agility_report(corpus.dataset, providers)
    ]
    print(render_table(
        ("Provider", "Releases", "Mean gap (d)", "Max", "Substantial", "Subst. gap", "Projected exposure"),
        rows,
        title="Release agility",
    ))


def _cmd_scorecard(_args) -> None:
    from repro.analysis import scorecard

    corpus = default_corpus()
    fingerprints = {spec.slug: corpus.fingerprint(spec.slug) for spec in corpus.specs}
    rows = []
    for s in scorecard(corpus.dataset, fingerprints):
        rows.append(
            (
                s.program,
                f"{s.composite:.1f}",
                s.hygiene_rank,
                f"{s.substantial_gap_days:.0f}d",
                f"{s.mean_response_lag:.0f}d" if s.mean_response_lag is not None else "n/a",
                s.exclusive_roots,
                f"{s.lint_error_rate * 100:.0f}%",
            )
        )
    print(render_table(
        ("Program", "Composite", "Hygiene rank", "Cadence", "Mean lag", "Exclusives", "BR errors"),
        rows,
        title="Root program scorecard (1 = best)",
    ))


def _cmd_lint(_args) -> None:
    from repro.lint import lint_programs

    corpus = default_corpus()
    for when in (date(2016, 6, 1), date(2020, 6, 1)):
        rows = []
        for census in lint_programs(corpus.dataset, at=when):
            top = sorted(census.by_lint.items(), key=lambda kv: -kv[1])[:2]
            rows.append(
                (
                    census.provider,
                    census.roots,
                    f"{census.error_rate * 100:.1f}%",
                    f"{census.warning_rate * 100:.1f}%",
                    ", ".join(f"{lid} x{n}" for lid, n in top),
                )
            )
        print(render_table(
            ("Store", "Roots", "Errors", "Warnings", "Top findings"),
            rows,
            title=f"BR lint census at {when}",
        ))
        print()


def _cmd_validate(args) -> None:
    from datetime import datetime, timezone

    from repro.verify import ChainValidator, issue_server_leaf

    corpus = default_corpus()
    if args.issuer not in corpus.specs_by_slug:
        raise SystemExit(f"unknown catalog slug {args.issuer!r}")
    when = date.fromisoformat(args.date)
    issued = date.fromisoformat(args.issued)
    at = datetime(when.year, when.month, when.day, tzinfo=timezone.utc)
    leaf = issue_server_leaf(
        corpus.specs_by_slug[args.issuer], corpus.mint, args.domain,
        not_before=datetime(issued.year, issued.month, issued.day, tzinfo=timezone.utc),
    )
    print(f"Validating {args.domain} (issued {issued} by {args.issuer}) on {when}:")
    rows = []
    for provider in corpus.dataset.providers:
        store = corpus.dataset[provider].at(when)
        if store is None:
            rows.append((provider, "no store yet"))
            continue
        result = ChainValidator(store=store).validate(leaf, at)
        rows.append((provider, "ACCEPTED" if result.valid else f"rejected ({result.reason})"))
    print(render_table(("Root store", "Verdict"), rows))


def _cmd_publish(args) -> None:
    corpus = default_corpus()
    history = corpus.dataset[args.provider]
    from repro.collection.publish import snapshot_tree

    for snapshot in history.snapshots[-args.last:]:
        tree = snapshot_tree(snapshot)
        destination = args.directory / f"{snapshot.version}+{snapshot.taken_at:%Y%m%d}"
        write_tree(tree, destination)
        print(f"wrote {len(tree)} files to {destination}")


def _cmd_collect(args) -> None:
    from repro.collection import CollectionReport, FaultPlan, publish_history
    from repro.store.history import Dataset

    corpus = default_corpus()
    providers = args.providers or corpus.dataset.providers
    plan = FaultPlan(seed=args.fault_seed, rate=args.fault_rate) if args.fault_rate > 0 else None
    report = CollectionReport()
    collected = Dataset()
    writer = None
    if args.archive is not None:
        from repro.archive import Archive, ArchiveWriter

        writer = ArchiveWriter(Archive(args.archive, create=True))
    for provider in providers:
        origin = publish_history(corpus.dataset[provider])
        if plan is not None:
            origin = plan.instrument(origin, provider)
        history = scrape_history(
            provider, origin, strict=args.strict, report=report, workers=args.workers
        )
        collected.add_history(history)
        if writer is not None:
            writer.add_history(history)
    print(render_table(
        ("Provider", "Tags", "OK", "Salvaged", "Quarantined", "Retried", "Skipped entries"),
        report.summary_rows(),
        title="Collection report",
    ))
    counts = report.counts()
    mode = "strict" if args.strict else "lenient"
    print(
        f"\nCollected {collected.total_snapshots()} snapshots from "
        f"{len(providers)} providers in {mode} mode "
        f"({counts['salvaged']} salvaged, {counts['quarantined']} quarantined)."
    )
    if writer is not None:
        ingested = writer.commit()
        print(f"archived to {args.archive}: {ingested.summary()}")
    if args.report is not None:
        args.report.write_text(report.to_json())
        print(f"report written to {args.report}")


def _cmd_watch(args) -> None:
    from repro.archive import Archive
    from repro.collection import FaultPlan
    from repro.collection.faults import SimulatedClock
    from repro.collection.watch import Watcher, build_watch_world

    corpus = default_corpus()
    clock = SimulatedClock()
    plan = (
        FaultPlan(seed=args.fault_seed, rate=args.fault_rate, clock=clock)
        if args.fault_rate > 0
        else None
    )
    world = build_watch_world(
        corpus.dataset,
        providers=args.providers,
        ct_logs=tuple(args.ct_logs),
        hold_back=args.hold_back,
        fault_plan=plan,
    )
    archive = Archive(args.directory, create=True)
    watcher = Watcher(
        archive, world.origins, clock=clock, force_unlock=args.force_unlock
    )
    for number in range(args.cycles):
        if number:
            clock.sleep(watcher.policy.cycle_interval)
            world.advance()
        cycle = watcher.run_cycle()
        active = ", ".join(
            f"{o.origin}={o.status}" for o in cycle.outcomes if o.status != "idle"
        )
        print(
            f"cycle {cycle.number}: +{cycle.snapshots_ingested} snapshots"
            + (f"  [{active}]" if active else "  [all idle]")
        )
    report = watcher.report
    print(render_table(
        ("Origin", "Ingested", "Quarantined", "Deferred", "Last status"),
        report.summary_rows(),
        title="Watch report",
    ))
    print(
        f"\ntotal ingested: {report.total_ingested()} snapshots "
        f"over {len(report)} cycles"
    )
    print(f"catalog hash: {archive.catalog_hash()}")
    transitions = report.transitions()
    if transitions:
        print("breaker transitions:")
        for t in transitions:
            print(f"  t={t.at:.0f}s {t.from_state} -> {t.to_state} ({t.reason})")
    if args.report is not None:
        args.report.write_text(report.to_json() + "\n")
        print(f"report written to {args.report}")


def _cmd_serve(args) -> int | None:
    from repro.serving import ServingClient, ServingConfig, ServingDaemon

    daemon = ServingDaemon(
        ServingConfig(
            root=args.directory,
            host=args.host,
            port=args.port,
            workers=args.workers,
            batch_limit=args.batch_limit,
            supervise=args.supervise,
            drain_timeout=args.drain_timeout,
            max_in_flight=args.max_in_flight,
            request_deadline=args.request_deadline,
        )
    )
    host, port = daemon.start()
    try:
        with ServingClient(host, port) as client:
            health = client.health()
        print(f"serving {args.directory} at http://{host}:{port}")
        supervised = " supervised" if args.supervise else ""
        print(
            f"workers: {args.workers}{supervised} "
            f"(pids {' '.join(map(str, daemon.pids))})"
        )
        print(f"catalog hash: {health['catalog_hash']}")
        if args.check:
            print("health check ok")
            return 0
        print("endpoints: POST /v1/query, GET /healthz, GET /metrics (Ctrl-C stops)")
        daemon.wait()
    except KeyboardInterrupt:
        print("stopping")
    finally:
        daemon.stop()
    return 0


def _cmd_archive(args) -> int | None:
    handler = globals()[f"_cmd_archive_{args.archive_command.replace('-', '_')}"]
    return handler(args)


def _cmd_archive_ingest(args) -> None:
    from repro.archive import Archive, ingest_dataset

    corpus = default_corpus()
    archive = Archive(args.directory, create=True)
    report = ingest_dataset(archive, corpus.dataset, providers=args.providers)
    print(f"ingested into {args.directory}: {report.summary()}")
    print(f"catalog hash: {archive.catalog_hash()}")


def _parse_purpose(value: str) -> TrustPurpose | None:
    return None if value == "any" else TrustPurpose(value)


def _resolve_fingerprint(query, prefix: str) -> str:
    """Expand a unique fingerprint prefix against the archive index."""
    matches = [fp for fp in query.index.postings if fp.startswith(prefix)]
    if not matches:
        raise ArchiveError(f"no archived certificate matches fingerprint {prefix!r}")
    if len(matches) > 1:
        raise ArchiveError(
            f"fingerprint prefix {prefix!r} is ambiguous ({len(matches)} matches)"
        )
    return matches[0]


def _report_degraded(query) -> None:
    """After a degraded-mode query: say what could not be served."""
    if not query.allow_degraded:
        return
    for provider, version, reason in query.skipped:
        print(f"skipped {provider}@{version}: {reason}")
    for record in query.quarantined:
        print(
            f"quarantined {record.provider}@{record.version} "
            f"({record.taken_at}): {record.reason}"
        )


def _cmd_archive_query(args) -> None:
    from repro.archive import ArchiveQuery

    if (args.fingerprint is None) == (args.provider is None):
        raise ArchiveError("archive query needs exactly one of --fingerprint or --provider")
    query = ArchiveQuery(args.directory, allow_degraded=args.degraded)
    when = date.fromisoformat(args.date) if args.date else None

    if args.provider is not None:
        snapshot = (
            query.snapshot_at(args.provider, when)
            if when is not None
            else query.snapshot(args.provider, query.timeline(args.provider)[-1].version)
        )
        if snapshot is None:
            raise ArchiveError(f"provider {args.provider!r} has no release on or before {when}")
        print(snapshot.describe())
        _report_degraded(query)
        return

    fingerprint = _resolve_fingerprint(query, args.fingerprint)
    purpose = _parse_purpose(args.purpose)
    print(f"fingerprint {fingerprint}")
    if when is None:
        rows = [
            (p.provider, p.version, f"{p.taken_at:%Y-%m-%d}")
            for p in query.ever_shipped(fingerprint)
        ]
        print(render_table(
            ("Provider", "Version", "Released"), rows,
            title=f"Shipped in {len(rows)} archived snapshots",
        ))
        return
    observations = query.trusted_on(fingerprint, when, purpose=purpose)
    rows = [
        (
            o.provider,
            o.version,
            f"{o.taken_at:%Y-%m-%d}",
            "yes" if o.present else "no",
            str(o.level) if o.level is not None else "-",
        )
        for o in observations
    ]
    print(render_table(
        ("Provider", "In force", "Released", "Trusted?", "Level"), rows,
        title=f"Trust on {when} (purpose: {args.purpose})",
    ))
    trusted = sum(1 for o in observations if o.present)
    print(f"\n{trusted}/{len(observations)} providers trusted it on {when}")
    _report_degraded(query)


def _cmd_archive_diff(args) -> None:
    from repro.archive import ArchiveQuery

    query = ArchiveQuery(args.directory)
    when = date.fromisoformat(args.date) if args.date else None
    if when is None:
        diff = query.diff(
            args.provider_a,
            args.provider_b,
            version_a=query.timeline(args.provider_a)[-1].version,
            version_b=query.timeline(args.provider_b)[-1].version,
        )
    else:
        diff = query.diff(args.provider_a, args.provider_b, when=when)
    print(diff.describe())
    for label, fingerprints in (
        (f"only {diff.provider_a}@{diff.version_a}", diff.only_a),
        (f"only {diff.provider_b}@{diff.version_b}", diff.only_b),
    ):
        print(f"\n{label} ({len(fingerprints)}):")
        for fp in sorted(fingerprints):
            print(f"  {fp[:16]}")


def _cmd_archive_index_dump(args) -> None:
    from repro.archive import Archive, load_index
    from repro.archive.index import render_index_json

    print(render_index_json(load_index(Archive(args.directory))))


def _cmd_archive_verify(args) -> int:
    from repro.archive import Archive, verify_archive

    report = verify_archive(Archive(args.directory))
    print(report.summary())
    for line in report.problem_lines():
        print(f"  {line}")
    return 0 if report.ok else 1


def _cmd_archive_gc(args) -> None:
    from repro.archive import Archive, gc_archive

    result = gc_archive(Archive(args.directory), dry_run=args.dry_run)
    print(result.summary())


def _cmd_archive_repair(args) -> int:
    from repro.archive import Archive, repair_archive, verify_archive

    archive = Archive(args.directory)
    report = repair_archive(archive, force_unlock=args.force_unlock)
    print(report.summary())
    verification = verify_archive(archive)
    print(verification.summary())
    for line in verification.problem_lines():
        print(f"  {line}")
    return 0 if verification.ok else 1


def _cmd_scenario(args) -> int | None:
    handler = globals()[f"_cmd_scenario_{args.scenario_command.replace('-', '_')}"]
    return handler(args)


def _load_scenario(args):
    """Resolve the run/diff scenario selection flags to a Scenario."""
    from dataclasses import replace

    from repro.scenario import Scenario
    from repro.simulation.incidents import incident_by_key, symantec_phased_scenario

    if args.scenario is not None:
        try:
            text = args.scenario.read_text()
        except OSError as exc:
            raise ValidationError(f"cannot read scenario file: {exc}") from exc
        scenario = Scenario.from_json(text)
    elif args.incident is not None:
        try:
            incident = incident_by_key(args.incident)
        except KeyError as exc:
            raise ValidationError(str(exc.args[0])) from exc
        scenario = incident.as_scenario()
    else:
        scenario = symantec_phased_scenario()
    if args.providers is not None:
        scenario = replace(scenario, providers=tuple(args.providers))
    if args.dates is not None:
        scenario = replace(
            scenario, dates=tuple(date.fromisoformat(d) for d in args.dates)
        )
    return scenario


def _scenario_engine(args):
    from repro.archive import Archive, ingest_dataset
    from repro.scenario import ScenarioEngine

    corpus = default_corpus()
    archive = Archive(args.directory, create=args.ingest)
    if args.ingest and archive.catalog_bytes() is None:
        report = ingest_dataset(archive, corpus.dataset)
        print(f"ingested into {args.directory}: {report.summary()}")
    return ScenarioEngine(
        archive,
        corpus=corpus,
        workers=args.workers,
        use_cache=not args.no_cache,
        chunk_retries=args.chunk_retries,
    )


def _cmd_scenario_run(args) -> None:
    from repro.scenario import population_impact, render_impact, render_run, run_to_json, summarize

    engine = _scenario_engine(args)
    scenario = _load_scenario(args)
    run = engine.run(scenario)
    if args.cells:
        print(render_run(run))
        print()
    print(render_impact(population_impact(run)))
    print(f"\n{summarize(run)}")
    if args.output is not None:
        args.output.write_text(run_to_json(run))
        print(f"run written to {args.output}")


def _cmd_scenario_diff(args) -> None:
    from repro.scenario import diff_runs, render_diff

    engine = _scenario_engine(args)
    scenario = _load_scenario(args)
    baseline, run = engine.run_with_baseline(scenario)
    diff = diff_runs(baseline, run)
    print(render_diff(diff))
    print(
        f"\n{len(diff.broken)} chain-cells broke, {len(diff.fixed)} fixed "
        f"across {len(run.cells)} cells"
    )


def _cmd_scenario_report(args) -> None:
    from repro.scenario import population_impact, render_impact, render_run, run_from_json, summarize

    try:
        text = args.path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read run file: {exc}") from exc
    run = run_from_json(text)
    if args.cells:
        print(render_run(run))
        print()
    print(render_impact(population_impact(run)))
    print(f"\n{summarize(run)}")


def _cmd_bench(args) -> int:
    from repro.bench import SUITES
    from repro.bench.runner import broken_floors, run_suite, summary_lines

    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        raise ValidationError(
            f"unknown bench suite {', '.join(unknown)} (choose from {', '.join(SUITES)})"
        )
    broken = 0
    for name in args.suites or SUITES:
        suite = SUITES[name]
        results = run_suite(
            suite, smoke=True if args.smoke else None, output_dir=args.output_dir
        )
        print(f"Bench suite {name} ({results['mode']})")
        for line in summary_lines(suite, results):
            print(f"  {line}")
        print(f"written to {args.output_dir / suite.output}")
        broken += len(broken_floors(suite, results))
    return 1 if broken else 0


def _cmd_obs(args) -> int | None:
    handler = globals()[f"_cmd_obs_{args.obs_command.replace('-', '_')}"]
    return handler(args)


def _cmd_obs_report(args) -> None:
    from repro.obs.report import load_dump, report_lines

    for line in report_lines(load_dump(args.path)):
        print(line)


def _cmd_scrape(args) -> None:
    directory: Path = args.directory
    if not directory.is_dir():
        raise CollectionError(f"scrape directory {directory} does not exist")
    repo = SourceRepository(name=args.provider)
    versions = sorted(p for p in directory.iterdir() if p.is_dir())
    for path in versions:
        tag = path.name
        released_text = tag.split("+")[-1]
        released = date(int(released_text[:4]), int(released_text[4:6]), int(released_text[6:8]))
        repo.add_tag(tag, released, read_tree(path))
    history = scrape_history(args.provider, repo)
    for snapshot in history:
        print(snapshot.describe())


if __name__ == "__main__":
    sys.exit(main())

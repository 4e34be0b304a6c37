"""Smoke tests for every CLI subcommand."""

import pytest

from repro.cli.main import main


@pytest.fixture(autouse=True, scope="module")
def _warm_corpus(corpus):
    """CLI commands use the shared default corpus; warm it once."""
    return corpus


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "repro-roots" in capsys.readouterr().out

    def test_dataset(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "nss" in out and "Total snapshots" in out

    def test_user_agents(self, capsys):
        assert main(["user-agents"]) == 0
        out = capsys.readouterr().out
        assert "Coverage: 77.0%" in out and "Chrome Mobile" in out

    def test_hygiene(self, capsys):
        assert main(["hygiene"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Best-to-worst hygiene: nss" in out

    def test_removals(self, capsys):
        assert main(["removals"]) == 0
        out = capsys.readouterr().out
        assert "diginotar" in out and "-37" in out

    def test_nss_removals(self, capsys):
        assert main(["nss-removals"]) == 0
        out = capsys.readouterr().out
        assert "682927" in out and "Symantec" in out

    def test_exclusives(self, capsys):
        assert main(["exclusives"]) == 0
        out = capsys.readouterr().out
        assert "microsoft (30 exclusive)" in out and "apple (13 exclusive)" in out

    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "4 clusters" in out and "SMACOF" in out

    def test_ecosystem(self, capsys):
        assert main(["ecosystem"]) == 0
        out = capsys.readouterr().out
        assert "inverted    : True" in out

    def test_staleness(self, capsys):
        assert main(["staleness"]) == 0
        out = capsys.readouterr().out
        assert "alpine" in out and "amazonlinux" in out

    def test_deviations(self, capsys):
        assert main(["deviations"]) == 0
        assert "debian" in capsys.readouterr().out

    def test_software(self, capsys):
        assert main(["software"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "OpenSSL" in out

    def test_purposes(self, capsys):
        assert main(["purposes"]) == 0
        out = capsys.readouterr().out
        assert "Purpose exposure" in out and "Code-sign overreach" in out

    def test_cross_sign(self, capsys):
        assert main(["cross-sign"]) == 0
        out = capsys.readouterr().out
        assert "via cross-sign: valid" in out and "Bypass exposure" in out

    def test_minimize(self, capsys):
        assert main(["minimize"]) == 0
        out = capsys.readouterr().out
        assert "Minimal root sets" in out and "Unused" in out

    def test_lint(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "BR lint census" in out and "w_sha1_signature" in out

    def test_scorecard(self, capsys):
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "scorecard" in out and out.index("nss") < out.index("microsoft")

    def test_agility(self, capsys):
        assert main(["agility"]) == 0
        out = capsys.readouterr().out
        assert "Release agility" in out and "Projected exposure" in out

    def test_validate(self, capsys):
        assert main([
            "validate", "www.example.org",
            "--issuer", "symantec-legacy-2",
            "--issued", "2019-10-01",
            "--date", "2020-08-01",
        ]) == 0
        out = capsys.readouterr().out
        assert "server-distrust-after" in out  # NSS rejects
        assert out.count("ACCEPTED") >= 8  # everyone else accepts

    def test_validate_unknown_issuer(self):
        with pytest.raises(SystemExit):
            main(["validate", "x.example", "--issuer", "no-such-slug"])


class TestPublishScrape:
    def test_roundtrip_via_disk(self, tmp_path, capsys):
        assert main(["publish", "java", str(tmp_path), "--last", "2"]) == 0
        published = capsys.readouterr().out
        assert "wrote" in published
        assert main(["scrape", "java", str(tmp_path)]) == 0
        scraped = capsys.readouterr().out
        assert scraped.count("java@") == 2


class TestCollect:
    def test_collect_strict_default(self, capsys):
        assert main(["collect", "--providers", "alpine"]) == 0
        out = capsys.readouterr().out
        assert "Collection report" in out
        assert "strict mode" in out
        assert "(0 salvaged, 0 quarantined)" in out

    def test_collect_lenient_with_faults_writes_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert main([
            "collect", "--lenient", "--providers", "alpine", "amazonlinux",
            "--fault-rate", "0.3", "--fault-seed", "cli-test",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "lenient mode" in out
        assert f"report written to {report_path}" in out
        parsed = json.loads(report_path.read_text())
        assert set(parsed) == {"counts", "skipped_entries", "records"}
        assert {r["provider"] for r in parsed["records"]} == {"alpine", "amazonlinux"}
        assert sum(parsed["counts"].values()) == len(parsed["records"])

    def test_collect_strict_and_lenient_exclusive(self):
        with pytest.raises(SystemExit):
            main(["collect", "--strict", "--lenient"])

    def test_collect_archive_persists_histories(self, tmp_path, capsys):
        target = tmp_path / "arch"
        assert main(["collect", "--providers", "alpine", "--archive", str(target)]) == 0
        out = capsys.readouterr().out
        assert f"archived to {target}" in out
        assert main(["archive", "verify", str(target)]) == 0
        assert capsys.readouterr().out.startswith("OK")


class TestObs:
    def test_collect_metrics_out_then_obs_report(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "collect", "--providers", "alpine", "--archive", str(tmp_path / "arch"),
            "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        import json

        dump = json.loads(metrics.read_text())
        assert dump["schema"] == 1 and dump["metrics"] and dump["spans"]
        assert main(["obs", "report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Per-provider scrape latency" in out
        assert "Collection outcomes" in out
        assert "Codec parses" in out
        assert "Archive journal/commit" in out
        assert "Trace spans" in out

    def test_every_subcommand_accepts_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(["dataset", "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert metrics.exists()  # written even for an uninstrumented command

    def test_metrics_are_written_when_the_command_fails(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main([
            "collect", "--providers", "alpine",
            "--fault-rate", "0.5", "--fault-seed", "cli-error-test",
            "--metrics-out", str(metrics),
        ])
        assert rc == 1
        assert metrics.exists()
        capsys.readouterr()

    def test_obs_report_missing_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(["obs", "report", str(tmp_path / "nope.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param('{"schema": 1, "metr', id="truncated-json"),
            pytest.param('{"schema": 1}', id="no-metrics-section"),
            pytest.param('{"schema": 1, "metrics": {"a": 1}}', id="metrics-not-a-list"),
            pytest.param(
                '{"schema": 1, "metrics": [42], "spans": []}', id="family-not-a-dict"
            ),
            pytest.param(
                '{"schema": 1, "metrics": [], "spans": 7}', id="spans-not-a-list"
            ),
            pytest.param(
                '{"schema": 1, "spans": [], "metrics": [{"name": '
                '"repro_collection_scrape_seconds", "series": [{"labels": {}}]}]}',
                id="series-missing-count",
            ),
        ],
    )
    def test_obs_report_malformed_dump_one_line_error(self, tmp_path, capsys, payload):
        """Any structurally-broken dump exits 1 with a single ``error:``
        line via the central CLI error mapping — never a traceback."""
        dump = tmp_path / "broken.json"
        dump.write_text(payload)
        rc = main(["obs", "report", str(dump)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_bench_smoke_feeds_obs_report(self, tmp_path, capsys):
        """The smoke bench path ends in ``obs report``: bench sections
        land in the shared registry and render from the dump."""
        metrics = tmp_path / "bench-metrics.json"
        assert main([
            "bench", "ordination", "--smoke", "--output-dir", str(tmp_path),
            "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Bench sections" in out
        for section in ("distance.vectorized_s", "mds.smacof_s"):
            assert section in out
        assert "Analysis stages" in out  # instrumented stages fired too


class TestErrorExits:
    """Operational failures exit 1 with a one-line error, no traceback."""

    def test_collect_strict_fault_exits_nonzero(self, capsys):
        rc = main([
            "collect", "--providers", "alpine",
            "--fault-rate", "0.5", "--fault-seed", "cli-error-test",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1  # no traceback

    def test_scrape_missing_directory_exits_nonzero(self, tmp_path, capsys):
        rc = main(["scrape", "java", str(tmp_path / "nowhere")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_unknown_suite_exits_nonzero(self, tmp_path, capsys):
        assert main(["bench", "nope", "--smoke", "--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown bench suite nope")
        assert not list(tmp_path.iterdir())

    def test_archive_query_missing_archive_exits_nonzero(self, tmp_path, capsys):
        rc = main(["archive", "query", str(tmp_path / "no-archive"), "--provider", "nss"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    """One full-corpus archive, built through the CLI, shared read-only."""
    target = tmp_path_factory.mktemp("cli-archive") / "arch"
    assert main(["archive", "ingest", str(target)]) == 0
    return target


class TestArchive:
    def test_ingest_reports_and_is_idempotent(self, archive_dir, capsys):
        capsys.readouterr()
        assert main(["archive", "ingest", str(archive_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 added" in out and "unchanged" in out
        assert "0 new objects" in out
        assert "catalog hash: " in out

    def test_query_provider_latest(self, archive_dir, capsys):
        capsys.readouterr()
        assert main(["archive", "query", str(archive_dir), "--provider", "nss"]) == 0
        assert "nss@" in capsys.readouterr().out

    def test_query_fingerprint_point_in_time(self, archive_dir, slug_fingerprints, capsys):
        fingerprint = slug_fingerprints["diginotar-root"]
        capsys.readouterr()
        assert main([
            "archive", "query", str(archive_dir),
            "--fingerprint", fingerprint[:16], "--date", "2011-01-01",
        ]) == 0
        out = capsys.readouterr().out
        assert f"fingerprint {fingerprint}" in out  # prefix expanded
        assert "providers trusted it on 2011-01-01" in out

    def test_query_fingerprint_without_date_lists_postings(
        self, archive_dir, slug_fingerprints, capsys
    ):
        fingerprint = slug_fingerprints["diginotar-root"]
        capsys.readouterr()
        assert main(["archive", "query", str(archive_dir), "--fingerprint", fingerprint]) == 0
        assert "archived snapshots" in capsys.readouterr().out

    def test_query_unknown_fingerprint_exits_nonzero(self, archive_dir, capsys):
        rc = main(["archive", "query", str(archive_dir), "--fingerprint", "f" * 64])
        assert rc == 1
        assert "no archived certificate" in capsys.readouterr().err

    def test_query_needs_exactly_one_selector(self, archive_dir, capsys):
        assert main(["archive", "query", str(archive_dir)]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_diff(self, archive_dir, capsys):
        capsys.readouterr()
        assert main([
            "archive", "diff", str(archive_dir), "nss", "microsoft",
            "--date", "2019-01-01",
        ]) == 0
        out = capsys.readouterr().out
        assert "nss@" in out and "microsoft@" in out and "jaccard" in out

    def test_verify_clean_archive(self, archive_dir, capsys):
        capsys.readouterr()
        assert main(["archive", "verify", str(archive_dir)]) == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_verify_corrupt_object_exits_nonzero(self, archive_dir, tmp_path, capsys):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(archive_dir, clone)
        shard = next(p for p in sorted((clone / "objects").iterdir()) if p.is_dir())
        victim = sorted(shard.glob("*.der"))[0]
        data = bytearray(victim.read_bytes())
        data[0] ^= 0x01
        victim.write_bytes(bytes(data))

        capsys.readouterr()
        assert main(["archive", "verify", str(clone)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert f"corrupt object {victim.stem}" in out

    def test_gc_dry_run(self, archive_dir, capsys):
        capsys.readouterr()
        assert main(["archive", "gc", str(archive_dir), "--dry-run"]) == 0
        assert "would remove 0 objects" in capsys.readouterr().out

    def test_bench_smoke(self, tmp_path, capsys):
        assert main(["bench", "archive", "--smoke", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Bench suite archive (smoke)" in out
        assert "floor ingest.idempotent == True" in out and "BROKEN" not in out
        assert (tmp_path / "BENCH_archive.json").exists()


@pytest.mark.usefixtures("no_fsync")
class TestWatch:
    def test_watch_ingests_then_goes_idle(self, tmp_path, capsys):
        import json

        target = tmp_path / "arch"
        report_path = tmp_path / "watch.json"
        assert main([
            "watch", str(target),
            "--cycles", "3", "--providers", "alpine",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "cycle 1: +" in out
        assert "Watch report" in out
        assert "catalog hash: " in out
        payload = json.loads(report_path.read_text())
        assert len(payload["cycles"]) == 3
        assert payload["total_ingested"] > 0
        # The archive the loop grew passes a full integrity verify.
        assert main(["archive", "verify", str(target)]) == 0
        capsys.readouterr()
        # Re-running over the same revealed world is pure idle.
        assert main(["watch", str(target), "--cycles", "1", "--hold-back", "0",
                     "--providers", "alpine"]) == 0
        assert "+0 snapshots" in capsys.readouterr().out

    def test_watch_with_faults_degrades_not_dies(self, tmp_path, capsys):
        assert main([
            "watch", str(tmp_path / "arch"),
            "--cycles", "2", "--providers", "alpine",
            "--fault-rate", "0.4", "--fault-seed", "cli-watch",
        ]) == 0
        out = capsys.readouterr().out
        assert "Watch report" in out  # the loop survived the faults

    def test_bench_ingest_smoke(self, tmp_path, capsys):
        assert main(["bench", "ingest", "--smoke", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Bench suite ingest (smoke)" in out
        assert "correctness.catalog_match" in out and "BROKEN" not in out
        assert (tmp_path / "BENCH_ingest.json").exists()


@pytest.fixture()
def scenario_file(tmp_path):
    """A minimal one-edit scenario: drop a long-lived common root from nss."""
    from datetime import date

    from repro.scenario import ChainSpec, Edit, Scenario

    scenario = Scenario(
        name="drop-common-d2",
        edits=(
            Edit(
                kind="remove", root="common-d2",
                effective=date(2020, 6, 26), providers=("nss",),
            ),
        ),
        workload=(
            ChainSpec(
                issuer="common-d2", domain="victim.example",
                not_before=date(2020, 1, 1),
            ),
        ),
        providers=("nss",),
        dates=(date(2020, 5, 1), date(2021, 1, 15)),
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario.to_json())
    return path


@pytest.mark.usefixtures("no_fsync")
class TestScenario:
    def test_run_report_round_trip(self, archive_dir, scenario_file, tmp_path, capsys):
        run_file = tmp_path / "run.json"
        metrics_file = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main([
            "scenario", "run", str(archive_dir),
            "--scenario", str(scenario_file),
            "--cells", "--output", str(run_file),
            "--metrics-out", str(metrics_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "population impact: drop-common-d2" in out
        assert "no-anchor" in out or "anchor-not-trusted" in out  # the removal bit
        assert "peak population impact" in out
        assert f"run written to {run_file}" in out

        assert main(["scenario", "report", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "population impact: drop-common-d2" in out
        assert "peak population impact" in out

        # The run's telemetry renders through obs report: stage table,
        # chain/cache outcome lines, pool gauge.
        assert main(["obs", "report", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "Scenario stages" in out
        assert "scenario chains:" in out and "invalid" in out
        assert "scenario cell cache:" in out
        assert "scenario pool workers: 1" in out

    def test_diff_names_the_causing_edit(self, archive_dir, scenario_file, capsys):
        capsys.readouterr()
        assert main([
            "scenario", "diff", str(archive_dir), "--scenario", str(scenario_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "remove common-d2 @ 2020-06-26" in out
        assert "broke" in out and "0 fixed" in out

    def test_symantec_with_grid_overrides(self, archive_dir, capsys):
        capsys.readouterr()
        assert main([
            "scenario", "run", str(archive_dir), "--symantec",
            "--providers", "nss",
            "--dates", "2020-05-01", "2021-01-15",
        ]) == 0
        out = capsys.readouterr().out
        assert "symantec-phased-removal" in out
        assert "1 providers x 2 dates" in out

    def test_unknown_incident_exits_nonzero(self, archive_dir, capsys):
        rc = main(["scenario", "run", str(archive_dir), "--incident", "nonesuch"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nonesuch" in err

    def test_missing_scenario_file_exits_nonzero(self, archive_dir, tmp_path, capsys):
        rc = main([
            "scenario", "run", str(archive_dir),
            "--scenario", str(tmp_path / "nope.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bench_smoke(self, tmp_path, capsys):
        assert main(["bench", "scenario", "--smoke", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Bench suite scenario (smoke)" in out
        assert f"written to {tmp_path / 'BENCH_scenario.json'}" in out
        assert (tmp_path / "BENCH_scenario.json").exists()

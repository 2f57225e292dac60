"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.scripts import rether_failover_script, tcp_congestion_script

NODES_2 = """NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END"""

NODES_4 = NODES_2.replace(
    "END",
    """  node3 02:00:00:00:00:03 192.168.1.3
  node4 02:00:00:00:00:04 192.168.1.4
END""",
)


@pytest.fixture
def fig5_path(tmp_path):
    path = tmp_path / "fig5.fsl"
    path.write_text(tcp_congestion_script(NODES_2))
    return str(path)


@pytest.fixture
def fig6_path(tmp_path):
    path = tmp_path / "fig6.fsl"
    path.write_text(rether_failover_script(NODES_4))
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheck:
    def test_valid_script(self, fig5_path):
        code, text = run_cli("check", fig5_path)
        assert code == 0
        assert "TCP_SS_CA_algo" in text
        assert "filters=3" in text

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "bad.fsl"
        bad.write_text("SCENARIO broken\n  ((X > )) >> STOP;\nEND")
        code, text = run_cli("check", str(bad))
        assert code == 2
        assert "error" in text

    def test_missing_file(self):
        code, text = run_cli("check", "/nonexistent.fsl")
        assert code == 2


class TestTables:
    def test_fig6_dump_shows_distribution(self, fig6_path):
        code, text = run_cli("tables", fig6_path)
        assert code == 0
        assert "FILTER TABLE" in text
        assert "tr_token" in text
        assert "home node2" in text  # TokensTo2
        assert "FAIL" in text and "@ node3" in text  # the remote action
        assert "STOP" in text

    def test_fig5_dump_shows_fault(self, fig5_path):
        code, text = run_cli("tables", fig5_path)
        assert "DROP(TCP_synack" in text.replace(" ,", ",") or "DROP" in text
        assert "disabled at start" in text  # ENABLE_CNTR targets


class TestLint:
    def test_clean_script(self, fig6_path):
        code, text = run_cli("lint", fig6_path)
        assert code == 0

    def test_findings_printed(self, tmp_path):
        dirty = tmp_path / "dirty.fsl"
        dirty.write_text(
            """
FILTER_TABLE
  p: (12 2 0x0800)
END
"""
            + NODES_2
            + """
SCENARIO s
  A: (p, node1, node2, RECV)
  Orphan: (node1)
  ((A = 1)) >> STOP;
END
"""
        )
        code, text = run_cli("lint", str(dirty))
        assert code == 0  # advisory by default
        assert "unused-counter" in text

    def test_strict_fails_on_warnings(self, tmp_path):
        dirty = tmp_path / "dirty.fsl"
        dirty.write_text(
            """
FILTER_TABLE
  p: (12 2 0x0800)
END
"""
            + NODES_2
            + """
SCENARIO s
  A: (p, node1, node2, RECV)
  Orphan: (node1)
  ((A = 1)) >> STOP;
END
"""
        )
        code, _ = run_cli("lint", str(dirty), "--strict")
        assert code == 1

    def test_strict_passes_clean(self, fig6_path):
        code, _ = run_cli("lint", fig6_path, "--strict")
        assert code == 0


class TestScenarios:
    def test_listing(self, tmp_path):
        multi = tmp_path / "multi.fsl"
        multi.write_text(
            NODES_2
            + """
SCENARIO first 1sec END
SCENARIO second END
"""
        )
        code, text = run_cli("scenarios", str(multi))
        assert code == 0
        assert "first" in text and "second" in text
        assert "timeout=1.000000s" in text

    def test_scenario_selection(self, tmp_path):
        multi = tmp_path / "multi.fsl"
        multi.write_text(
            """
FILTER_TABLE
  p: (12 2 0x0800)
END
"""
            + NODES_2
            + """
SCENARIO first
  A: (p, node1, node2, RECV)
  ((A = 1)) >> STOP;
END
SCENARIO second
  B: (p, node1, node2, SEND)
  ((B = 9)) >> FLAG_ERROR;
END
"""
        )
        code, text = run_cli("check", str(multi), "--scenario", "second")
        assert code == 0
        assert "second" in text


class TestSweep:
    def test_campaign_over_seeds(self, fig5_path):
        code, text = run_cli(
            "sweep", fig5_path, "--seeds", "0,1", "--backend", "serial"
        )
        assert code == 0
        assert "seed=0,medium=switch" in text
        assert "seed=1,medium=switch" in text
        assert "ALL OK: 2 tasks" in text

    def test_json_rows_are_canonical(self, fig5_path):
        import json

        code, text = run_cli(
            "sweep", fig5_path, "--seeds", "0", "--backend", "serial", "--json"
        )
        assert code == 0
        outcome = json.loads(text)
        assert outcome["passed"] is True
        assert outcome["aborted"] is False
        assert outcome["resumed"] == 0
        assert outcome["cached_rows"] == 0
        assert outcome["timed_out"] == 0
        rows = outcome["rows"]
        assert len(rows) == 1
        assert rows[0]["status"] == "OK"
        assert rows[0]["payload"]["passed"] is True
        assert set(rows[0]) == {"index", "name", "seed", "status", "payload", "error"}

    def test_journal_resume_and_cache_flags(self, fig5_path, tmp_path):
        import json

        journal = tmp_path / "campaign.jsonl"
        cache = tmp_path / "cache"
        base = (
            "sweep", fig5_path, "--seeds", "0,1", "--backend", "serial",
            "--cache-dir", str(cache), "--json",
        )
        code, text = run_cli(*base, "--journal", str(journal))
        assert code == 0
        cold = json.loads(text)
        assert cold["cached_rows"] == 0 and cold["resumed"] == 0
        # A second run must resume (all rows replay from the journal).
        code, text = run_cli(*base, "--resume", str(journal))
        assert code == 0
        resumed = json.loads(text)
        assert resumed["resumed"] == 2
        assert resumed["rows"] == cold["rows"]
        # A warm-cache run with a fresh journal serves every cell from disk.
        code, text = run_cli(*base, "--journal", str(tmp_path / "j2.jsonl"))
        assert code == 0
        warm = json.loads(text)
        assert warm["cached_rows"] == 2
        assert warm["rows"] == cold["rows"]

    def test_retries_flag_reaches_the_runner(self, fig5_path):
        # A negative budget is rejected by run_sweep's validation, which
        # proves the flag is wired through rather than silently dropped.
        code, text = run_cli(
            "sweep", fig5_path, "--seeds", "0", "--backend", "serial",
            "--retries", "-1",
        )
        assert code == 2
        assert "retries" in text
        code, _ = run_cli(
            "sweep", fig5_path, "--seeds", "0", "--backend", "serial",
            "--retries", "3",
        )
        assert code == 0

    def test_journal_without_resume_refuses_overwrite(self, fig5_path, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        base = ("sweep", fig5_path, "--seeds", "0", "--backend", "serial",
                "--journal", str(journal))
        assert run_cli(*base)[0] == 0
        code, text = run_cli(*base)
        assert code == 2
        assert "resume" in text

    def test_conflicting_journal_and_resume_paths(self, fig5_path, tmp_path):
        code, text = run_cli(
            "sweep", fig5_path, "--backend", "serial",
            "--journal", str(tmp_path / "a.jsonl"),
            "--resume", str(tmp_path / "b.jsonl"),
        )
        assert code == 2
        assert "different files" in text

    def test_hosts_for_a_backend_that_dials_nobody_exits_2(self, fig5_path):
        code, text = run_cli(
            "sweep", fig5_path, "--backend", "serial", "--hosts", "127.0.0.1:9"
        )
        assert code == 2
        assert "hosts= was given" in text and "serial" in text

    def test_failing_campaign_exits_nonzero(self, fig6_path):
        # no Rether ring, no traffic: fig6's STOP never fires -> FAIL
        code, text = run_cli(
            "sweep", fig6_path, "--backend", "serial",
            "--workload", "none", "--max-time", "2",
        )
        assert code == 1
        assert "FAIL" in text

    def test_bad_medium_reported(self, fig5_path):
        code, text = run_cli(
            "sweep", fig5_path, "--backend", "serial", "--media", "warp"
        )
        assert code == 1  # the row fails; the campaign reports it
        assert "unknown medium" in text

    def test_fail_fast_stops_the_grid(self, fig6_path):
        # Every cell fails (no ring, no traffic); without --fail-fast the
        # campaign runs all 3 seeds, with it only the first.
        base = (
            "sweep", fig6_path, "--backend", "serial", "--seeds", "0,1,2",
            "--workload", "none", "--max-time", "2",
        )
        code_full, text_full = run_cli(*base)
        code_ff, text_ff = run_cli(*base, "--fail-fast")
        assert code_full == 1 and code_ff == 1
        assert "3 FAILED: 3 tasks" in text_full
        assert "1 FAILED" in text_ff
        assert "1 tasks" in text_ff
        assert "fail-fast: campaign aborted early" in text_ff

    def test_analyze_renders_fig5_story(self, fig5_path):
        """The FAE smoke: fig5's dropped SYNACK shows up as a journey
        with a fault line and a retransmit marker, plus metrics tables."""
        code, text = run_cli("analyze", fig5_path, "--check")
        assert code == 0
        assert "frame journeys" in text
        assert "journey " in text
        assert "DROP applied" in text
        assert "retransmit" in text
        assert "metrics:" in text
        assert "tcp.rtt_ns" in text
        assert "engine.faults_applied" in text

    def test_analyze_json_output(self, fig5_path):
        import json

        code, text = run_cli("analyze", fig5_path, "--json")
        assert code == 0
        data = json.loads(text)
        assert data["journeys"] and data["metrics"]
        assert any(j["retransmits"] for j in data["journeys"])

    def test_analyze_jsonl_dump(self, fig5_path, tmp_path):
        import json

        dump = tmp_path / "journeys.jsonl"
        code, _ = run_cli("analyze", fig5_path, "--jsonl", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines
        for line in lines:
            journey = json.loads(line)
            assert journey["digest"] and journey["hops"]

    def test_analyze_saved_row(self, fig5_path, tmp_path):
        """A saved --json payload renders offline via --row."""
        import json

        code, text = run_cli("analyze", fig5_path, "--json")
        saved = tmp_path / "row.json"
        # Wrap like a canonical sweep row: analyze accepts both shapes.
        saved.write_text(json.dumps({"payload": json.loads(text)}))
        code, text = run_cli("analyze", "--row", str(saved))
        assert code == 0
        assert "journey " in text and "metrics:" in text

    def test_analyze_without_script_or_row_errors(self):
        code, text = run_cli("analyze")
        assert code == 2
        assert "analyze needs a script" in text

    def _analyze_row_refused(self, tmp_path, content):
        saved = tmp_path / "row.json"
        saved.write_text(content)
        code, text = run_cli("analyze", "--row", str(saved))
        assert code == 2
        assert text.startswith("error: ")
        assert "must hold one saved sweep row or payload" in text

    def test_analyze_row_refuses_json_list(self, tmp_path):
        self._analyze_row_refused(tmp_path, '[{"payload": {}}]')

    def test_analyze_row_refuses_undecodable_json(self, tmp_path):
        self._analyze_row_refused(tmp_path, '{"payload": ')

    def test_analyze_row_refuses_sweep_document(self, fig5_path, tmp_path):
        code, text = run_cli("sweep", fig5_path, "--seeds", "0", "--backend", "serial", "--json")
        assert code == 0
        self._analyze_row_refused(tmp_path, text)

    def test_rether_campaign_passes_fig6(self, fig6_path):
        # With the ring installed and a steady feed, Fig 6 passes from the
        # command line alone.
        code, text = run_cli(
            "sweep", fig6_path, "--backend", "serial", "--seeds", "5",
            "--media", "bus", "--rether", "--workload", "tcp_feed",
            "--max-time", "30",
        )
        assert code == 0
        assert "PASS" in text

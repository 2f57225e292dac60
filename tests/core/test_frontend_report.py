"""Tests for scenario orchestration and verdict assembly."""

import pytest

from repro.core.report import EndReason, ErrorRecord, ScenarioReport
from repro.errors import ScenarioError
from repro.sim import ms, seconds
from tests.conftest import every, make_testbed

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO orchestration {timeout}
  P: (probe, node1, node2, RECV)
  {rules}
END
"""


def build(rules="", timeout="", seed=3):
    tb, (n1, n2) = make_testbed(2, seed=seed)
    script = SCRIPT.format(nodes=tb.node_table_fsl(), rules=rules, timeout=timeout)
    return tb, n1, n2, script


class TestOrchestration:
    def test_init_start_handshake_enables_engines(self):
        tb, n1, n2, script = build()
        report = tb.run_scenario(script, max_time=seconds(10))
        # Both engines got INIT over the control plane (node1 is the
        # control node and installs directly; node2 acked in-band).
        assert tb.engines["node2"].stats.control_frames_received >= 2

    def test_workload_starts_after_engines(self):
        tb, n1, n2, script = build()
        timeline = []

        def workload():
            timeline.append(("workload", tb.sim.now))
            assert tb.engines["node2"].enabled  # armed before traffic

        tb.run_scenario(script, workload=workload, max_time=seconds(10))
        assert timeline

    def test_unknown_node_rejected(self):
        tb, n1, n2, script = build()
        bad = script.replace("node2", "node9")
        with pytest.raises(Exception):
            tb.run_scenario(bad, max_time=seconds(5))

    def test_run_without_install_rejected(self):
        from repro.core.testbed import Testbed

        tb = Testbed()
        tb.add_host("node1")
        with pytest.raises(ScenarioError):
            tb.run_scenario("SCENARIO x END")

    def test_inactivity_ends_quiet_scenario(self):
        tb, n1, n2, script = build()

        def workload():
            sender = n1.udp.bind(0)
            n2.udp.bind(7)
            sender.sendto(bytes(20), n2.ip, 7)

        report = tb.run_scenario(
            script, workload=workload, max_time=seconds(30), inactivity_ns=ms(100)
        )
        assert report.end_reason is EndReason.INACTIVITY
        # No declared timeout in the scenario: inactivity is a normal end.
        assert report.passed

    def test_declared_timeout_makes_inactivity_a_failure(self):
        tb, n1, n2, script = build(timeout="50ms", rules="((P = 99)) >> STOP;")

        def workload():
            sender = n1.udp.bind(0)
            n2.udp.bind(7)
            sender.sendto(bytes(20), n2.ip, 7)  # just one packet, then silence

        report = tb.run_scenario(script, workload=workload, max_time=seconds(30))
        assert report.end_reason is EndReason.INACTIVITY
        assert not report.passed  # paper §6.2: timeout termination = error

    def test_max_time_bound(self):
        tb, n1, n2, script = build(rules="((P = 99)) >> STOP;")

        def workload():
            # Steady traffic keeps the scenario active forever.
            sender = n1.udp.bind(0)
            n2.udp.bind(7)
            every(tb.sim, ms(5), lambda: sender.sendto(bytes(20), n2.ip, 7))

        report = tb.run_scenario(script, workload=workload, max_time=ms(200))
        assert report.end_reason is EndReason.MAX_TIME
        assert not report.passed

    def test_consecutive_scenarios_on_one_testbed(self):
        tb, n1, n2, script = build()

        def workload():
            sender = n1.udp.bind(0)
            n2.udp.bind(7)
            sender.sendto(bytes(20), n2.ip, 7)

        first = tb.run_scenario(
            script, workload=workload, max_time=seconds(10), inactivity_ns=ms(50)
        )
        second = tb.run_scenario(
            script.replace("orchestration", "again"),
            max_time=seconds(10),
            inactivity_ns=ms(50),
        )
        assert first.scenario_name == "orchestration"
        assert second.scenario_name == "again"


class TestReportVerdicts:
    def _report(self, **kwargs):
        defaults = dict(
            scenario_name="t",
            end_reason=EndReason.INACTIVITY,
            duration_ns=1000,
        )
        defaults.update(kwargs)
        return ScenarioReport(**defaults)

    def test_clean_inactivity_passes(self):
        assert self._report().passed

    def test_errors_fail(self):
        report = self._report(errors=[ErrorRecord("node1", 0, 0, 5)])
        assert not report.passed

    def test_expected_stop_missing_fails(self):
        assert not self._report(expects_stop=True).passed

    def test_stop_received_passes(self):
        report = self._report(
            end_reason=EndReason.STOP, expects_stop=True, stop_time_ns=10
        )
        assert report.passed

    def test_declared_timeout_inactivity_fails(self):
        report = self._report(declared_timeout=True)
        assert not report.passed

    def test_render_mentions_errors(self):
        report = self._report(errors=[ErrorRecord("node2", 3, 1, 77, line=12)])
        text = report.render()
        assert "FAIL" in text and "node2" in text and "line 12" in text

    def test_unreachable_node_degrades_and_fails(self):
        report = self._report(
            end_reason=EndReason.NODE_UNREACHABLE, unreachable_nodes=["node2"]
        )
        assert report.degraded
        assert not report.passed
        assert "node2" in report.render()

    def test_control_timeout_degrades_even_without_named_nodes(self):
        report = self._report(end_reason=EndReason.CONTROL_TIMEOUT)
        assert report.degraded
        assert not report.passed

    def test_scripted_fail_nodes_do_not_degrade(self):
        """A FAIL action's casualty is an expected death: listed in the

        render, but the verdict logic is untouched.
        """
        report = self._report(failed_nodes=["node3"])
        assert not report.degraded
        assert report.passed
        assert "node3" in report.render()

    def test_control_errors_surface_in_render(self):
        report = self._report(control_errors=["INIT NACK from node2"])
        assert report.passed  # survived anomalies do not fail the run
        assert "INIT NACK from node2" in report.render()


class TestReportSerialisation:
    """Satellite: degraded reports — crash timeline included — must cross
    process boundaries intact (the sweep pool pickles them, the CLI and
    CI artefacts JSON them)."""

    def _degraded_report(self):
        from repro.core.report import CrashRecord

        return ScenarioReport(
            scenario_name="t",
            end_reason=EndReason.NODE_UNREACHABLE,
            duration_ns=2_000_000,
            unreachable_nodes=["node2"],
            failed_nodes=["node3"],
            control_errors=["START retries exhausted toward node2"],
            errors=[ErrorRecord("node4", 3, 1, 77, line=12)],
            crash_timeline=[
                CrashRecord(
                    node="node3",
                    kind="crash",
                    crash_time_ns=1_000_000,
                    reboot_time_ns=1_500_000,
                    register_time_ns=1_600_000,
                    rejoin_time_ns=1_700_000,
                    resync_rounds=2,
                ),
                CrashRecord(node="node2", kind="fail", crash_time_ns=900_000),
            ],
        )

    def test_report_pickle_round_trip(self):
        import pickle

        report = self._degraded_report()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.summary() == report.summary()
        assert clone.render() == report.render()
        assert clone.degraded and not clone.passed

    def test_summary_is_json_round_trippable(self):
        import json

        report = self._degraded_report()
        summary = report.summary()
        clone = json.loads(json.dumps(summary, sort_keys=True))
        assert clone == summary
        # Timeline rows are plain dicts, sorted by (crash time, node).
        timeline = clone["crash_timeline"]
        assert [row["node"] for row in timeline] == ["node2", "node3"]
        assert timeline[1]["resync_rounds"] == 2
        assert timeline[0]["rejoin_time_ns"] is None  # never came back

    def test_render_shows_the_lifecycle_arc(self):
        text = self._degraded_report().render()
        assert "lifecycle" in text
        assert "node3" in text

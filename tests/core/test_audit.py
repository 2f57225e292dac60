"""Tests for the engine audit trail."""

from repro.core.audit import AuditLog
from repro.sim import seconds
from tests.conftest import make_testbed

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO audited
  P: (probe, node1, node2, RECV)
  ((P = 2)) >> DROP probe, node1, node2, RECV;
  ((P = 4)) >> FLAG_ERROR;
  ((P = 5)) >> STOP;
END
"""


def run_audited(n_packets=6):
    tb, (n1, n2) = make_testbed(2, seed=4, telemetry=True)
    script = SCRIPT.format(nodes=tb.node_table_fsl())

    def workload():
        n2.udp.bind(7)
        sender = n1.udp.bind(0)
        for i in range(n_packets):
            tb.sim.after(
                (i + 1) * 1_000_000, lambda: sender.sendto(bytes(20), n2.ip, 7)
            )

    report = tb.run_scenario(script, workload=workload, max_time=seconds(10))
    return tb, report


class TestAuditTrail:
    def test_records_conditions_faults_and_verdicts(self):
        tb, report = run_audited()
        log = tb.audit_log
        assert log.select(kind="condition")
        assert len(log.select(kind="fault")) == 1
        assert len(log.select(kind="error")) == 1
        assert len(log.select(kind="stop")) == 1

    def test_events_carry_node_and_time(self):
        tb, report = run_audited()
        (fault,) = tb.audit_log.select(kind="fault")
        assert fault.node == "node2"
        assert fault.time_ns > 0
        assert "DROP" in fault.detail and "probe" in fault.detail

    def test_chronological_order(self):
        tb, report = run_audited()
        times = [event.time_ns for event in tb.audit_log.events]
        assert times == sorted(times)

    def test_render_readable(self):
        tb, report = run_audited()
        text = tb.audit_log.render()
        assert "DROP applied" in text
        assert "STOP executed" in text
        assert "FLAG_ERROR" in text

    def test_select_by_node(self):
        tb, report = run_audited()
        nodes = {event.node for event in tb.audit_log.events}
        assert "node2" in nodes and "node1" not in nodes

    def test_disabled_by_default(self):
        tb, (n1, n2) = make_testbed(2, seed=4)
        assert tb.audit_log is None

    def test_bounded(self, sim):
        log = AuditLog(sim)
        log.max_events = 2
        for i in range(5):
            log.record("n", "condition", f"event {i}")
        assert len(log) == 2
        assert log.dropped == 3

    def test_fault_events_carry_frame_digest(self):
        tb, report = run_audited()
        (fault,) = tb.audit_log.select(kind="fault")
        assert fault.digest  # the journey-correlation join key
        for condition in tb.audit_log.select(kind="condition"):
            assert condition.digest == ""


class TestSaturationSurfaced:
    def test_render_trailer_announces_drops(self, sim):
        log = AuditLog(sim)
        log.max_events = 2
        for i in range(5):
            log.record("n", "condition", f"event {i}")
        text = log.render()
        assert text.endswith("... 3 events dropped (log saturated at 2)")
        # Pre-saturation events are rendered untouched above the trailer.
        assert "event 0" in text and "event 1" in text

    def test_report_surfaces_saturation(self):
        tb, (n1, n2) = make_testbed(2, seed=4, telemetry=True)
        tb.audit_log.max_events = 2
        script = SCRIPT.format(nodes=tb.node_table_fsl())

        def workload():
            n2.udp.bind(7)
            sender = n1.udp.bind(0)
            for i in range(6):
                tb.sim.after(
                    (i + 1) * 1_000_000,
                    lambda: sender.sendto(bytes(20), n2.ip, 7),
                )

        report = tb.run_scenario(script, workload=workload, max_time=seconds(10))
        assert report.audit_events_dropped > 0
        assert report.truncated
        assert report.summary()["audit_events_dropped"] == report.audit_events_dropped
        assert "WARNING" in report.render()
        assert "audit log saturated" in report.render()

"""The control node addressing itself: one local-or-remote decision.

``VirtualWireEngine._send_control`` handles a message to the engine's own
MAC in place -- no frame, no sequence number, no count -- so the front-end
sends INIT, START and SHUTDOWN to every scenario node alike, and a report
from a rule homed on the control node reaches the front-end the way a
remote node's does.
"""

import pathlib

from repro.core.control import ControlMessage, ControlType
from repro.core.report import EndReason
from repro.core.testbed import Testbed
from repro.net.frame import ETHERTYPE_VW_CONTROL
from repro.sim import ms, seconds
from tests.conftest import every, make_testbed

SCENARIOS_DIR = pathlib.Path(__file__).resolve().parents[2] / "scenarios"
FIG5 = (SCENARIOS_DIR / "fig5_tcp_congestion.fsl").read_text()

_CONTROL = ETHERTYPE_VW_CONTROL.to_bytes(2, "big")

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO loopback
  {counters}
  {rules}
END
"""


def run_fig5():
    """Fig 5 on node1/node2 with node1 the control node; returns the
    testbed and the destination MAC of every control frame node1's engine
    put below itself."""
    tb = Testbed(seed=11)
    node1, node2 = tb.add_host("node1"), tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1")
    engine = tb.engines["node1"]
    sent = []
    pass_down = engine.pass_down

    def tap(frame):
        if frame[12:14] == _CONTROL:
            sent.append(frame[:6])
        pass_down(frame)

    engine.pass_down = tap

    def workload():
        node2.tcp.listen(0x4000)
        conn = node1.tcp.connect(node2.ip, 0x4000, local_port=0x6000)
        conn.on_established = lambda: conn.send(bytes(16 * 1024))

    report = tb.run_scenario(FIG5, workload=workload, max_time=seconds(30))
    return tb, report, sent


class TestTheControlNodeAsAScenarioNode:
    def test_it_counts_only_the_frames_it_sends_to_node2(self):
        tb, report, sent = run_fig5()
        assert report.passed, report.render()
        node2 = tb.host("node2").mac.packed
        assert sent and set(sent) == {node2}
        assert tb.engines["node1"].stats.control_frames_sent == len(sent)
        assert report.engine_stats["node1"]["control_frames_sent"] == len(sent)

    def test_its_channel_holds_no_state_for_its_own_mac(self):
        tb, _, _ = run_fig5()
        channel = tb.engines["node1"].channel
        assert tb.host("node1").mac.packed not in channel._peers
        assert tb.host("node2").mac.packed in channel._peers

    def test_a_looped_send_runs_its_handler_and_on_acked_once_before_returning(self):
        tb, _, sent = run_fig5()
        engine = tb.engines["node1"]
        engine.enabled = True
        stats, frames, queued = engine.stats.as_dict(), len(sent), len(tb.sim.queue)
        acked = []
        engine._send_control(
            engine.host.mac,
            ControlMessage(ControlType.SHUTDOWN, tb.frontend.program_id),
            on_acked=lambda: acked.append(engine.enabled),
        )
        assert acked == [False]  # SHUTDOWN ran first, then on_acked, once
        assert engine.stats.as_dict() == stats
        assert len(sent) == frames
        assert len(tb.sim.queue) == queued  # no retransmission timer armed

    def test_a_scenario_of_the_control_node_alone_starts_at_once(self):
        """Its looped INIT_ACK broadcasts START, whose looped ack releases
        the workload: no frame goes out at all."""
        tb, _ = make_testbed(2, seed=3)
        script = SCRIPT.format(nodes=tb.node_table_fsl("node1"), counters="", rules="")
        armed = []
        report = tb.run_scenario(
            script,
            workload=lambda: armed.append(tb.engines["node1"].enabled),
            max_time=seconds(5),
            inactivity_ns=ms(50),
        )
        assert armed == [True]
        assert report.end_reason is EndReason.INACTIVITY
        assert report.engine_stats["node1"]["control_frames_sent"] == 0


class TestReportsHomedOnTheControlNode:
    def test_flag_error_stop_and_restart_land_in_the_report(self):
        """S counts probes node1 (the control node) sends to node2.  Its
        rules FLAG_ERROR and CRASH node2 on the first, RESTART node2 on
        the second and STOP on the tenth."""
        tb, (n1, n2) = make_testbed(2, seed=3)
        script = SCRIPT.format(
            nodes=tb.node_table_fsl(),
            counters="S: (probe, node1, node2, SEND)",
            rules="((S = 1)) >> FLAG_ERROR; CRASH( node2 );\n"
            "  ((S = 2)) >> RESTART( node2, 10ms );\n"
            "  ((S = 10)) >> STOP;",
        )

        def workload():
            sender = n1.udp.bind(0)
            n2.udp.bind(7)
            every(tb.sim, ms(5), lambda: sender.sendto(bytes(20), n2.ip, 7))

        report = tb.run_scenario(script, workload=workload, max_time=seconds(5))
        (error,) = report.errors
        line = script.splitlines().index("  ((S = 1)) >> FLAG_ERROR; CRASH( node2 );") + 1
        assert (error.node, error.line) == ("node1", line)
        assert report.end_reason is EndReason.STOP and report.stop_node == "node1"
        (crash,) = report.crash_timeline
        assert crash.node == "node2"
        assert crash.reboot_time_ns - crash.crash_time_ns >= ms(10)
        assert crash.rejoin_time_ns is not None
        assert report.failed_nodes == [] and report.unreachable_nodes == []

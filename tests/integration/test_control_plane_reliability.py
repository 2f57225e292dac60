"""Integration: the reliable control plane under adversity.

Three failure modes the paper's testbed must survive without corrupting a
scenario's verdict:

* a *lossy control path* — the ARQ layer retransmits until every
  orchestration and state-exchange message lands, so a run with 20%
  control-frame loss converges to the same report as a lossless one;
* a *silent node* — an un-scripted partition exhausts the retry budget
  and liveness supervision ends the run promptly with a degraded report
  naming the dead node, instead of spinning to max_time;
* a *malformed control frame* — bytes no engine could have sent are
  counted and dropped by the receiving engine, never raised into the run;
* a *well-formed control frame naming what the receiver does not have* —
  an unknown program id, counter, term or node index — likewise.
"""

import pathlib

import pytest

from repro.core.control import ControlMessage, ControlType
from repro.core.report import EndReason
from repro.core.testbed import Testbed
from repro.net.frame import ETHERTYPE_VW_CONTROL
from repro.sim import ms, seconds

SCENARIOS_DIR = pathlib.Path(__file__).resolve().parents[2] / "scenarios"
FIG5 = (SCENARIOS_DIR / "fig5_tcp_congestion.fsl").read_text()

SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000


def run_fig5(
    seed=11, control_loss=0.0, partition_at=None, max_time=seconds(60), during=None
):
    """The §6.1 case study, optionally with a hostile control path.

    *during* is called with the testbed as the workload starts.
    """
    tb = Testbed(seed=seed)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1")
    loss = tb.add_control_loss("node2", control_loss) if control_loss else None

    def workload():
        node2.tcp.listen(RECEIVER_PORT)
        conn = node1.tcp.connect(node2.ip, RECEIVER_PORT, local_port=SENDER_PORT)
        conn.on_established = lambda: conn.send(bytes(48 * 1024))
        if partition_at is not None:
            tb.sim.after(partition_at, lambda: tb.partition("node2"))
        if during is not None:
            during(tb)

    report = tb.run_scenario(FIG5, workload=workload, max_time=max_time)
    return report, loss


class TestLossyControlPath:
    def test_lossless_baseline_passes(self):
        report, _ = run_fig5()
        assert report.passed, report.render()
        assert not report.degraded

    def test_twenty_percent_loss_converges_to_same_outcome(self):
        """The acceptance bar: retransmission fully masks a 20% lossy

        control path — verdict, end reason and every analysis counter
        match the lossless run exactly.
        """
        baseline, _ = run_fig5()
        lossy, loss = run_fig5(control_loss=0.2)
        assert loss.dropped > 0  # the layer really did interfere
        assert lossy.passed, lossy.render()
        assert not lossy.degraded
        assert lossy.end_reason == baseline.end_reason
        assert lossy.final_counters == baseline.final_counters
        assert lossy.final_counters["SYNACK"] == 2

    def test_loss_exercises_the_retransmit_machinery(self):
        report, loss = run_fig5(control_loss=0.2)
        stats = report.engine_stats
        retransmits = sum(s["control_retransmits"] for s in stats.values())
        duplicates = sum(s["control_duplicates_dropped"] for s in stats.values())
        assert retransmits > 0, "loss never triggered a retransmission"
        assert duplicates > 0, "no lost ACK ever forced a duplicate delivery"
        assert loss.dropped_send + loss.dropped_recv == loss.dropped

    def test_five_percent_loss_also_converges(self):
        baseline, _ = run_fig5()
        lossy, _ = run_fig5(control_loss=0.05)
        assert lossy.passed, lossy.render()
        assert lossy.final_counters == baseline.final_counters

    def test_determinism_under_loss(self):
        first, _ = run_fig5(seed=23, control_loss=0.2)
        second, _ = run_fig5(seed=23, control_loss=0.2)
        assert first.final_counters == second.final_counters
        assert first.duration_ns == second.duration_ns
        assert first.engine_stats == second.engine_stats


class TestMalformedControlFrame:
    def test_truncated_control_frame_is_counted_and_dropped(self):
        """A 3-byte control payload beside the live transfer raised
        ControlPlaneError out of the run before (ROADMAP aim 3)."""
        self.check_counted_and_dropped(b"\x01\x02\x03")

    def test_oversize_control_frame_is_counted_and_dropped(self):
        """A payload over the Ethernet MTU raised PacketError out of the run
        from the frame parser the engine used to build."""
        self.check_counted_and_dropped(bytes(1601))

    def check_counted_and_dropped(self, payload):
        testbeds = []

        def inject(tb):
            testbeds.append(tb)
            node1, node2 = tb.hosts["node1"], tb.hosts["node2"]
            bad = control_frame(node2.mac, node1.mac, payload)
            tb.sim.after(ms(2), node1.nic.transmit, args=(bad,))

        baseline, _ = run_fig5()
        report, _ = run_fig5(during=inject)
        assert report.passed, report.render()
        assert report.end_reason == baseline.end_reason
        assert report.final_counters == baseline.final_counters
        assert testbeds[0].engines["node2"].control_malformed_discarded == 1
        assert testbeds[0].engines["node1"].control_malformed_discarded == 0


def control_frame(dst, src, payload):
    """Raw control-frame bytes: any payload, the MTU not enforced."""
    return dst.packed + src.packed + ETHERTYPE_VW_CONTROL.to_bytes(2, "big") + payload


#: One well-formed message per handler that checks an id, each naming one
#: the scenario does not have, and the node whose engine must refuse it
#: (RESTART_REPORT is read by the front-end only: the control node).
HOSTILE_CONTROL = [
    (ControlMessage(ControlType.INIT, 999), "node2"),
    (ControlMessage(ControlType.COUNTER_UPDATE, 999, 5), "node2"),
    (ControlMessage(ControlType.TERM_STATUS, 999, 1), "node2"),
    (ControlMessage(ControlType.NODE_RESET, 999), "node2"),
    (ControlMessage(ControlType.RESTART_REPORT, 999, 1_000_000), "node1"),
]
HOSTILE_IDS = [message.msg_type.name for message, _ in HOSTILE_CONTROL]


def inject_control(tb, message, receiver, at=ms(2)):
    """Put *message* on the wire to *receiver* from the other of node1/node2."""
    sender = tb.hosts["node1" if receiver == "node2" else "node2"]
    frame = message.to_frame(tb.hosts[receiver].mac.packed, sender.mac.packed)
    tb.sim.after(at, sender.nic.transmit, args=(frame,))


class TestUnknownControlId:
    @pytest.mark.parametrize("message, receiver", HOSTILE_CONTROL, ids=HOSTILE_IDS)
    def test_dropped(self, message, receiver):
        """Counted and dropped beside the live transfer: each of these
        raised ControlPlaneError out of the run from the receiving engine's
        handler (ROADMAP item 6(1))."""
        testbeds = []

        def inject(tb):
            testbeds.append(tb)
            inject_control(tb, message, receiver)

        baseline, _ = run_fig5()
        report, _ = run_fig5(during=inject)
        assert report.passed, report.render()
        assert report.end_reason == baseline.end_reason
        assert report.final_counters == baseline.final_counters
        rejected = {name: e.control_rejected for name, e in testbeds[0].engines.items()}
        assert rejected == {"node1": 0, "node2": 0, receiver: 1}


class TestPartitionedNode:
    def test_partition_ends_run_as_node_unreachable(self):
        report, _ = run_fig5(partition_at=ms(300), max_time=seconds(60))
        assert report.end_reason is EndReason.NODE_UNREACHABLE
        assert report.unreachable_nodes == ["node2"]
        assert report.degraded
        assert not report.passed

    def test_partition_detected_well_before_max_time(self):
        """Heartbeat interval + full retry budget is under a second; the

        run must not burn the whole 60 s bound waiting for a dead node.
        """
        report, _ = run_fig5(partition_at=ms(300), max_time=seconds(60))
        assert report.duration_ns < seconds(5)

    def test_degraded_report_names_the_node_in_render(self):
        report, _ = run_fig5(partition_at=ms(300))
        rendered = report.render()
        assert "node2" in rendered
        assert "unreachable" in rendered
        assert "FAIL" in rendered

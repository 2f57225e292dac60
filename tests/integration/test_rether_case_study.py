"""Integration: the paper's §6.2 case study (Fig 6), verbatim.

Distributed rule execution: the crash trigger counts tokens at node2, the
FAIL executes on node3 via the control plane, and the STOP condition joins
terms evaluated on three different nodes.
"""

import pytest

from repro.core.testbed import Testbed
from repro.net.frame import ETHERTYPE_RETHER
from repro.rether import layer as rether_layer
from repro.rether.install import install_rether
from repro.scripts import rether_failover_script
from repro.sim import ms, seconds
from tests.integration.test_control_plane_reliability import (
    HOSTILE_CONTROL,
    HOSTILE_IDS,
    inject_control,
)

SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000
#: Lowered from the paper's 1000 to keep the test fast; the scenario
#: logic is threshold-independent.
DATA_THRESHOLD = 60


def run_case_study(seed=5, threshold=DATA_THRESHOLD, during=None):
    """*during* is called with the testbed as the workload starts."""
    tb = Testbed(seed=seed)
    hosts = [tb.add_host(f"node{i}") for i in range(1, 5)]
    tb.add_bus("bus0")
    tb.connect("bus0", *hosts)
    tb.install_virtualwire(control="node1")
    install_rether(hosts)
    script = rether_failover_script(tb.node_table_fsl(), data_threshold=threshold)

    def workload():
        hosts[3].tcp.listen(RECEIVER_PORT)
        conn = hosts[0].tcp.connect(
            hosts[3].ip, RECEIVER_PORT, local_port=SENDER_PORT
        )
        conn.on_established = lambda: conn.send(bytes((threshold + 40) * 1024))
        if during is not None:
            during(tb)

    report = tb.run_scenario(script, workload=workload, max_time=seconds(60))
    return tb, hosts, report


class TestRecoveryScenario:
    def test_scenario_passes(self):
        tb, hosts, report = run_case_study()
        assert report.passed, report.render()
        assert report.end_reason.value == "stop"

    def test_node3_was_crashed_remotely(self):
        """The FAIL action runs on node3, triggered by node2's counter —

        the paper's demonstration of distributed rule execution.
        """
        tb, hosts, report = run_case_study()
        assert not hosts[2].is_alive

    def test_exactly_three_token_transmissions(self):
        tb, hosts, report = run_case_study()
        assert report.final_counters["TokensFrom2"] == 3
        assert not report.errors  # the >3 rule never fired

    def test_ring_reconstructed(self):
        tb, hosts, report = run_case_study()
        node2 = hosts[1].rether
        assert node2.evicted(hosts[2].mac)
        assert len(node2.ring) == 3

    def test_recovery_within_declared_second(self):
        tb, hosts, report = run_case_study()
        assert report.stop_time_ns is not None

    def test_control_plane_was_exercised(self):
        """Cross-node terms require real control traffic (counter homes on

        node1/node2/node4, STOP evaluated at node2, FAIL at node3).
        """
        tb, hosts, report = run_case_study()
        senders = [
            report.engine_stats[node]["control_frames_sent"]
            for node in ("node1", "node2", "node4")
        ]
        assert all(count > 0 for count in senders)


class TestBrokenRetherFlagged:
    def test_over_retrying_rether_is_flagged(self, monkeypatch):
        """A Rether build that retries the token 6 times instead of 3

        violates the specification the script encodes: TokensFrom2 > 3
        must flag an error — with zero changes to the script.
        """
        monkeypatch.setattr(rether_layer, "DEFAULT_MAX_TOKEN_ATTEMPTS", 6)
        tb, hosts, report = run_case_study()
        assert report.errors
        assert not report.passed

    def test_recovery_too_slow_times_out(self, monkeypatch):
        """If failure detection takes longer than the scenario's 1-second

        inactivity budget allows, the run fails by timeout (paper: "an
        error is flagged if the scenario is terminated due to inactivity").
        A 30-second ack timeout stalls the ring long enough that no
        classified packet arrives within the window.
        """
        monkeypatch.setattr(rether_layer, "DEFAULT_ACK_TIMEOUT_NS", seconds(30))
        tb, hosts, report = run_case_study()
        assert not report.passed
        assert report.end_reason.value in ("inactivity", "max-time")


class TestMalformedRetherFrame:
    """Rether frames are classifiable, so a scripted random-byte MODIFY can
    hand the layer a token that does not parse: a fault the protocol sees as
    loss, where it used to raise PacketError out of the run (ROADMAP aim 3)."""

    @pytest.mark.parametrize(
        "payload",
        [b"\x77\x77" + bytes(14), bytes(7), b"\x77\x77" + bytes(1599)],
        ids=["unknown-type", "short-header", "oversize"],
    )
    def test_counted_and_dropped_beside_live_traffic(self, payload):
        def inject(tb):
            node1, node2 = tb.hosts["node1"], tb.hosts["node2"]
            ethertype = ETHERTYPE_RETHER.to_bytes(2, "big")
            bad = node2.mac.packed + node1.mac.packed + ethertype + payload
            tb.sim.after(ms(5), node1.nic.transmit, args=(bad,))

        tb, hosts, report = run_case_study(during=inject)
        assert report.passed, report.render()
        assert report.end_reason.value == "stop"
        assert report.final_counters["TokensFrom2"] == 3
        assert [host.rether.malformed_discarded for host in hosts] == [0, 1, 0, 0]


class TestUnknownControlId:
    @pytest.mark.parametrize("message, receiver", HOSTILE_CONTROL, ids=HOSTILE_IDS)
    def test_dropped(self, message, receiver):
        """Counted and dropped beside the failover: the Fig 5 regression's
        five messages beside Fig 6, whose rules are distributed — the
        counters and terms they name unknown ids of are live."""
        baseline = run_case_study()[2]
        tb, hosts, report = run_case_study(
            during=lambda tb: inject_control(tb, message, receiver, at=ms(5))
        )
        assert report.passed, report.render()
        assert report.end_reason == baseline.end_reason
        assert report.final_counters == baseline.final_counters
        rejected = {name: e.control_rejected for name, e in tb.engines.items()}
        assert rejected == {**dict.fromkeys(tb.engines, 0), receiver: 1}


class TestDeterminism:
    def test_repeatable(self):
        _, _, first = run_case_study(seed=5)
        _, _, second = run_case_study(seed=5)
        assert first.final_counters == second.final_counters
        assert first.stop_time_ns == second.stop_time_ns

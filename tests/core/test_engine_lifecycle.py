"""Engine lifecycle edges: idle passthrough, INIT/START phases, shutdown."""

import pytest

from repro.core.control import ControlMessage, ControlType
from repro.core.fsl import compile_text
from repro.core.tables import Direction
from repro.errors import ControlPlaneError
from repro.sim import ms, seconds
from tests.conftest import make_testbed

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO lifecycle
  P: (probe, node1, node2, RECV)
  ((P >= 1)) >> DROP probe, node1, node2, RECV;
END
"""


def echo_rig(tb, n1, n2):
    got = []
    n2.udp.bind(7).on_receive = lambda p, ip, port: got.append(p)
    sender = n1.udp.bind(0)
    return got, sender


class TestIdlePassthrough:
    def test_uninstalled_scenario_means_transparent_engine(self):
        """Engines spliced but no scenario loaded: traffic flows freely

        and nothing is intercepted.
        """
        tb, (n1, n2) = make_testbed(2, seed=6)
        got, sender = echo_rig(tb, n1, n2)
        sender.sendto(b"before any scenario", n2.ip, 7)
        tb.sim.run_until(ms(50))
        assert got == [b"before any scenario"]
        assert tb.engines["node2"].stats.packets_intercepted == 0

    def test_traffic_after_scenario_end_flows_again(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        got, sender = echo_rig(tb, n1, n2)

        def workload():
            sender.sendto(b"eaten", n2.ip, 7)

        report = tb.run_scenario(
            script, workload=workload, max_time=seconds(10), inactivity_ns=ms(50)
        )
        assert got == []  # the DROP was armed from the first packet
        # Scenario over, engines disabled: the same traffic now passes.
        sender.sendto(b"survives", n2.ip, 7)
        tb.sim.run_until(tb.sim.now + ms(50))
        assert got == [b"survives"]


class TestControlPlaneEdges:
    def test_init_for_unknown_program_rejected(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]
        message = ControlMessage(ControlType.INIT, 999)
        with pytest.raises(ControlPlaneError):  # the handler refuses it ...
            engine._on_init(n1.mac, message)
        wire = message.to_frame(n2.mac.packed, n1.mac.packed)
        engine._handle_control(wire)  # ... off the wire: dropped
        assert engine.control_rejected == 1 and engine.program is None

    def test_counter_update_before_install_is_harmless(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]
        update = ControlMessage(ControlType.COUNTER_UPDATE, 0, 5)
        wire = update.to_frame(n2.mac.packed, n1.mac.packed)
        engine._handle_control(wire)  # no runtime yet: ignored
        assert engine.runtime is None

    def test_control_frames_never_classified(self):
        """VirtualWire's own frames must be invisible to the filter scan

        (they are consumed below classification)."""
        tb, (n1, n2) = make_testbed(2, seed=6)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        report = tb.run_scenario(script, max_time=seconds(5), inactivity_ns=ms(50))
        for stats in report.engine_stats.values():
            assert stats["control_frames_received"] > 0
            # Interceptions (classification attempts) only count data-path
            # frames; this idle scenario carried none.
            assert stats["packets_intercepted"] == 0

    def test_engine_stats_reset_between_scenarios(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        got, sender = echo_rig(tb, n1, n2)
        tb.run_scenario(
            script,
            workload=lambda: sender.sendto(b"x", n2.ip, 7),
            max_time=seconds(5),
            inactivity_ns=ms(50),
        )
        first_drops = tb.engines["node2"].stats.packets_dropped
        assert first_drops == 1
        tb.run_scenario(
            script.replace("lifecycle", "second"),
            max_time=seconds(5),
            inactivity_ns=ms(50),
        )
        assert tb.engines["node2"].stats.packets_dropped == 0


OWNERSHIP = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO ownership
  A: (probe, node2, node1, RECV)
  B: (probe, node1, node2, RECV)
  ((A = 100)) >> FLAG_ERROR;
  ((B = 5)) >> RESET_CNTR( B );
  ((B > 3)) >> INCR_CNTR( A, 1 );
  ((A < B)) >> INCR_CNTR( A, 2 );
END
"""


class TestControlInputsMustBeRemoteState:
    """A COUNTER_UPDATE or TERM_STATUS may only carry state whose home is
    another node: node1 owns A and the term (A = 100), node2 owns B and its
    terms; node1 mirrors B for (A < B) and consumes (B > 3).  Anything else
    is counted and dropped, so no control frame can inject a fault the
    script did not."""

    def test_only_mirrored_counters_and_consumed_remote_terms_are_taken(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        program = compile_text(OWNERSHIP.format(nodes=tb.node_table_fsl()))
        engine = tb.engines["node1"]
        engine.install_program(program)
        engine.start_scenario()
        runtime = engine.runtime
        runtime.on_classified_packet("probe", "node2", "node1", Direction.RECV)
        a, b = (program.counter_by_name(name).counter_id for name in "AB")
        owned_term, remote_only, consumed, mirror = range(4)

        def deliver(kind, first, second):
            message = ControlMessage(kind, first, second)
            engine._handle_control(message.to_frame(n1.mac.packed, n2.mac.packed))

        deliver(ControlType.COUNTER_UPDATE, a, 99)  # A is node1's own
        for term_id in (owned_term, remote_only, mirror):
            deliver(ControlType.TERM_STATUS, term_id, 1)
        assert engine.control_rejected == 4
        assert runtime.counter_value("A") == 1 and runtime.term_status == {}
        runtime.on_classified_packet("probe", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("A") == 2  # the script's own count goes on

        deliver(ControlType.COUNTER_UPDATE, b, 5)  # (A < B) holds: A += 2
        deliver(ControlType.TERM_STATUS, consumed, 1)  # (B > 3) holds: A += 1
        assert engine.control_rejected == 4
        assert runtime.counter_value("A") == 2 + 2 + 1


class TestFailedNodeEngine:
    def test_failed_node_stops_reporting(self):
        """After FAIL, the node's engine is disabled and its host dead:

        no further interceptions there."""
        tb, (n1, n2) = make_testbed(2, seed=6)
        script = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
""" + tb.node_table_fsl() + """
SCENARIO kill
  P: (probe, node1, node2, RECV)
  ((P = 1)) >> FAIL( node2 );
END
"""
        got, sender = echo_rig(tb, n1, n2)

        def workload():
            for i in range(4):
                tb.sim.after(
                    (i + 1) * ms(1), lambda: sender.sendto(b"x", n2.ip, 7)
                )

        report = tb.run_scenario(script, workload=workload, max_time=seconds(5))
        assert not tb.hosts["node2"].is_alive
        assert report.final_counters["P"] == 1
        # The packet that pulled the trigger was already through the hook
        # (FAIL is not a packet fault), so it delivers; nothing after does.
        assert got == [b"x"]


class TestInitChecksum:
    """Satellite of the reliable control plane: INIT integrity (§5.2)."""

    def _program(self, tb):
        from repro.core.fsl import compile_text

        return compile_text(SCRIPT.format(nodes=tb.node_table_fsl()))

    def test_bad_checksum_is_nacked_and_tables_stay_unarmed(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]
        program = self._program(tb)
        engine.program_registry[1] = program
        bad = ControlMessage(ControlType.INIT, 1, program.checksum() ^ 0xFF)
        engine._handle_control(bad.to_frame(n2.mac.packed, n1.mac.packed))
        assert engine.program is None  # refused to arm
        assert engine.stats.init_checksum_failures == 1
        assert engine.stats.control_frames_sent >= 1  # the INIT_NACK

    def test_good_checksum_installs_and_acks(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]
        program = self._program(tb)
        engine.program_registry[1] = program
        good = ControlMessage(ControlType.INIT, 1, program.checksum())
        engine._handle_control(good.to_frame(n2.mac.packed, n1.mac.packed))
        assert engine.program is program
        assert engine.stats.init_checksum_failures == 0

    def test_checksum_is_deterministic_across_compiles(self):
        tb, _ = make_testbed(2, seed=6)
        assert self._program(tb).checksum() == self._program(tb).checksum()

    def test_persistent_mismatch_abandons_scenario(self):
        """A node that NACKs every re-send ends the run as CONTROL_TIMEOUT

        with a degraded report naming it, instead of hanging.
        """
        from repro.core.frontend import MAX_INIT_RESENDS
        from repro.core.report import EndReason
        from repro.errors import ControlChecksumError

        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]

        def always_reject(program, claimed):
            raise ControlChecksumError("node2: simulated persistent corruption")

        engine.verify_init_checksum = always_reject
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        report = tb.run_scenario(script, max_time=seconds(10))
        assert report.end_reason is EndReason.CONTROL_TIMEOUT
        assert report.unreachable_nodes == ["node2"]
        assert not report.passed
        assert len(report.control_errors) == MAX_INIT_RESENDS + 1
        assert engine.stats.init_checksum_failures == MAX_INIT_RESENDS + 1
        assert engine.program is None

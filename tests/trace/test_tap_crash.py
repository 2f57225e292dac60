"""Regression: crash-with-amnesia vs frames still on the engine CPU.

The engine charges virtual processing time by scheduling the upward (or
downward) forward of each frame at its cost-model release time.  A CRASH
arriving while a frame sits "on the CPU" used to leave that deferred
forward dangling: the dead host would deliver the frame up its chain —
through the capture tap and into the IP stack — after the crash, which no
real machine does.  Forwards now carry the engine's life epoch and die
with it.
"""

from repro.core.tables import Direction
from repro.sim import ms, seconds
from tests.conftest import make_testbed

SCRIPT = """
FILTER_TABLE
  probe: (12 2 0x0800), (23 1 0x11), (36 2 0x0007)
END
{nodes}
SCENARIO tap_crash
  P: (probe, node1, node2, RECV)
  ((P = 999)) >> STOP;
END
"""


def probe_rig(tb, n1, n2, count=80):
    def workload():
        n2.udp.bind(7)
        sender = n1.udp.bind(0)
        for i in range(count):
            tb.sim.after(
                (i + 1) * ms(1), lambda: sender.sendto(bytes(20), n2.ip, 7)
            )

    return workload


class TestEpochGuard:
    def rig(self):
        tb, (n1, n2) = make_testbed(2, seed=6)
        engine = tb.engines["node2"]
        forwarded = []
        engine._forward = lambda data, direction: forwarded.append(bytes(data))
        return tb, engine, forwarded

    def test_frame_on_cpu_delivered_without_crash(self):
        """Positive control: the deferred forward does fire normally."""
        tb, engine, forwarded = self.rig()
        engine._forward_after(1_000, b"frame", Direction.RECV)
        assert forwarded == []  # still on the CPU
        tb.sim.run_for(1_000_000)
        assert forwarded == [b"frame"]

    def test_crash_discards_frames_on_the_cpu(self):
        """The regression: a crash between interception and release must
        swallow the frame, not ghost-deliver it from a dead host."""
        tb, engine, forwarded = self.rig()
        engine._forward_after(1_000, b"ghost", Direction.RECV)
        engine.on_host_crash()
        tb.sim.run_for(1_000_000)
        assert forwarded == []

    def test_next_life_forwards_normally(self):
        """The epoch only kills the old life's forwards: frames processed
        after the reboot flow as usual."""
        tb, engine, forwarded = self.rig()
        engine._forward_after(1_000, b"ghost", Direction.RECV)
        engine.on_host_crash()
        engine._forward_after(1_000, b"reborn", Direction.RECV)
        tb.sim.run_for(1_000_000)
        assert forwarded == [b"reborn"]


class TestTapAcrossCrash:
    def first_delivery_ns(self):
        """Reference run: when does node2's tap see the first probe?"""
        tb, (n1, n2) = make_testbed(2, seed=6, telemetry=True)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        tb.run_scenario(
            script,
            workload=probe_rig(tb, n1, n2, count=3),
            max_time=seconds(5),
            inactivity_ns=ms(100),
        )
        (first, *_) = tb.recorder.select(where="node2", direction="recv")
        return first.when

    def test_no_tap_capture_from_a_dead_host(self):
        """Crash node2 1 ns before the engine would release the first
        probe upward: the tap above the engine must record nothing."""
        release_ns = self.first_delivery_ns()
        tb, (n1, n2) = make_testbed(2, seed=6, telemetry=True)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        workload = probe_rig(tb, n1, n2, count=3)

        def workload_with_crash():
            workload()
            tb.sim.at(release_ns - 1, lambda: tb.crash_node("node2"))

        tb.run_scenario(
            script,
            workload=workload_with_crash,
            max_time=seconds(5),
            inactivity_ns=ms(100),
        )
        assert tb.recorder.select(where="node2", direction="recv") == []

    def test_capture_resumes_after_restart_without_duplicates(self):
        """The tap survives the crash/reboot arc: captures stop while the
        node is down, resume once it rejoins, and stay single-tap."""
        release_ns = self.first_delivery_ns()
        tb, (n1, n2) = make_testbed(2, seed=6, telemetry=True)
        script = SCRIPT.format(nodes=tb.node_table_fsl())
        workload = probe_rig(tb, n1, n2, count=80)

        def workload_with_arc():
            workload()
            tb.sim.at(release_ns - 1, lambda: tb.crash_node("node2"))
            tb.sim.at(release_ns - 1, lambda: tb.restart_node("node2", ms(20)))

        report = tb.run_scenario(
            script,
            workload=workload_with_arc,
            max_time=seconds(5),
            inactivity_ns=ms(200),
        )
        recv = tb.recorder.select(where="node2", direction="recv")
        assert recv, report.render()
        # Nothing captured while the host was down (crash .. reboot+resync).
        assert all(r.when >= release_ns - 1 + ms(20) for r in recv)
        # One tap, one capture per delivery: no duplicate timestamps.
        times = [r.when for r in recv]
        assert len(times) == len(set(times))
        assert report.crash_timeline and report.crash_timeline[0].node == "node2"

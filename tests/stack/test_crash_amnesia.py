"""Host crash-with-amnesia semantics: NIC, driver, TCP, UDP.

The CRASH fault primitive models pulling the power on a real machine:
frames parked in the driver at the instant of the crash are gone, socket
state evaporates without close() running anywhere, and a later reboot
comes up with blank tables.  Every per-frame deferral is a fire-and-forget
event carrying the frame as its argument, so nothing (no pooled job, no
handle) can carry a frame of the previous life across the reboot.
"""

import gc
import types

import pytest

from repro.net.nic import Nic
from repro.rll import RllLayer
from repro.rll.frames import encap_data_fast
from repro.sim import ms, seconds
from tests.conftest import make_testbed, make_two_hosts


def frame_to(host, noise: int = 0) -> bytes:
    """An arbitrary frame addressed to *host* (so its NIC accepts it); the
    driver's crash guard fires before any parsing, so the body is noise."""
    return bytes(host.mac.packed) + bytes([noise % 256]) * 58


class TestDriverCrashDrops:
    def test_frame_parked_in_driver_is_dropped(self, sim):
        """A frame delivered to the NIC but still inside the driver's
        rx-processing window when the host crashes must never come up the
        stack — the softirq that would complete it died with the kernel."""
        _, h1, h2 = make_two_hosts(sim)  # default costs: driver_rx_ns > 0
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        rx_before = h2.driver.rx_frames
        h2.nic.deliver(frame_to(h2))
        assert h2.driver.rx_frames == rx_before + 1  # the NIC accepted it
        h2.crash()  # ...before the deferred rx completion runs
        sim.run_until(seconds(1))
        assert got == []
        assert h2.nic.down_drops == 1

    def test_drop_is_deterministic_under_traffic(self, sim):
        """Crash mid-flow: every datagram is either delivered before the
        crash or dropped; the split is identical run to run."""

        def run_once():
            sim_local, h1, h2 = None, None, None
            from repro.sim import Simulator

            sim_local = Simulator(seed=99)
            _, h1, h2 = make_two_hosts(sim_local)
            got = []
            h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
            sender = h1.udp.bind(0)
            for i in range(20):
                sim_local.after(
                    (i + 1) * 100_000,
                    lambda i=i: sender.sendto(bytes([i]) * 32, h2.ip, 9),
                )
            sim_local.after(ms(1), h2.crash)
            sim_local.run_until(seconds(1))
            return len(got), h2.nic.down_drops

        first = run_once()
        second = run_once()
        assert first == second
        delivered, dropped = first
        assert 0 < delivered < 20  # the crash really landed mid-flow
        assert dropped > 0

    def test_frames_arriving_while_down_count_as_drops(self, sim):
        _, h1, h2 = make_two_hosts(sim)
        h2.crash()
        h2.nic.deliver(frame_to(h2))
        sim.run_until(ms(1))
        assert h2.nic.down_drops == 1
        assert h2.driver.rx_frames == 0  # never even reached the driver


class TestSoftStateAmnesia:
    def test_udp_bindings_vanish(self, sim):
        _, h1, h2 = make_two_hosts(sim)
        got = []
        h2.udp.bind(9).on_receive = lambda p, ip, port: got.append(p)
        h2.crash()
        h2.reboot()
        h1.udp.bind(0).sendto(b"hello?", h2.ip, 9)
        sim.run_until(seconds(1))
        assert got == []  # the binding did not survive the reboot
        h2.udp.bind(9)  # and the port is free again, no SocketError

    def test_tcp_connections_destroyed_without_fin(self, sim):
        _, h1, h2 = make_two_hosts(sim)
        h2.tcp.listen(0x4000)
        conn = h1.tcp.connect(h2.ip, 0x4000, local_port=0x6000)
        sim.run_until(ms(50))
        assert conn.state.value == "ESTABLISHED"
        frames_before = h2.driver.tx_frames
        h2.crash()
        assert h2.tcp.connections() == []
        sim.run_until(ms(51))
        # No FIN/RST escaped: the crash sent nothing.
        assert h2.driver.tx_frames == frames_before

    def test_fail_then_reboot_still_wipes(self, sim):
        """A node taken down with plain FAIL (no amnesia) must still come
        up blank if it is later rebooted: the reboot path re-runs the
        teardown."""
        _, h1, h2 = make_two_hosts(sim)
        h2.udp.bind(9)
        h2.fail()
        assert h2.udp._sockets  # FAIL alone preserves the binding
        h2.reboot()
        assert not h2.udp._sockets
        assert h2.is_alive
        assert h2.nic.is_up

    def test_reboot_defers_resync_hooks_until_engine_start(self, sim):
        """Layers hear ``on_host_resynced`` only once the re-shipped fault
        tables are armed, never at raw boot."""
        from repro.stack.layers import FrameLayer

        _, h1, h2 = make_two_hosts(sim)

        class Recorder(FrameLayer):
            def __init__(self):
                super().__init__("recorder")
                self.events = []

            def on_host_crash(self):
                self.events.append("crash")

            def on_host_reboot(self):
                self.events.append("reboot")

            def on_host_resynced(self):
                self.events.append("resynced")

        recorder = Recorder()
        h2.chain.splice_below_ip(recorder)
        h2.crash()
        h2.reboot()
        assert recorder.events == ["crash", "crash", "reboot"]
        h2.on_engine_started()
        assert recorder.events == ["crash", "crash", "reboot", "resynced"]
        # Idempotent: a second engine start is not a second resync.
        h2.on_engine_started()
        assert recorder.events == ["crash", "crash", "reboot", "resynced"]


SENTINEL = b"<<payload of the previous life>>"

#: a passive script (one counter, a STOP that never fires): the engines are
#: armed, so every data frame takes a ``vw:forward`` deferral.
PASSIVE_SCRIPT = """\
FILTER_TABLE
  TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
{nodes}
SCENARIO Amnesia 10sec
  DATA: (TCP_data, node1, node2, RECV)
  ((DATA > 1000000)) >> STOP;
END
"""


def sentinel_holders(roots, prune=()):
    """Every bytes object containing :data:`SENTINEL` reachable from *roots*.

    A forward walk over ``gc.get_referents`` (``gc.get_referrers`` cannot see
    through the untracked ``(frame,)`` argument tuples): through closures
    and defaults of functions but not their globals, and never into types
    or modules, so the walk stays inside the object graph of the testbed.
    """
    seen = {id(obj) for obj in prune}
    stack, found = list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            if SENTINEL in obj:
                found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))
    return found


class TestNoFrameOutlivesCrash:
    """CRASH with a sentinel-bearing frame parked in one of node2's
    deferrals: after a run past every deferral and a reboot, nothing
    reachable from the event queue or from any layer of either host still
    holds the sentinel, and no frame bearing it crosses the wire or reaches
    an application in the new life."""

    @pytest.mark.parametrize(
        "label",
        [
            "tcp:tx",
            "ip:tx",
            "vw:forward",
            "rll:tx",
            "driver:node2-eth0:tx",
            "driver:node2-eth0:rx",
            "rll:rx",
            "ip:rx",
            "tcp:rx",
        ],
    )
    def test_frame_parked_in(self, label):
        tb, (n1, n2) = make_testbed(medium="hub", rll=True)
        sim = tb.sim
        sniffed = []  # (time, frame) of everything that crosses the hub
        sniffer = Nic(sim, "02:00:00:00:00:99", name="sniffer")
        sniffer.promiscuous = True
        sniffer.set_receive_handler(lambda frame: sniffed.append((sim.now, frame)))
        tb.topology.connect("m0", sniffer)

        def workload():  # the sentinel flows both ways over one connection
            n2.tcp.listen(0x4000, on_accept=lambda conn: conn.send(SENTINEL * 200))
            conn = n1.tcp.connect(n2.ip, 0x4000, local_port=0x6000)
            conn.on_established = lambda: conn.send(SENTINEL * 200)

        program = tb.compile_cached(PASSIVE_SCRIPT.format(nodes=tb.node_table_fsl()))
        tb.frontend.start_scenario(program, on_running=workload)
        node2 = [n2.nic, n2.driver, n2.ip_layer, n2.chain.demux, n2.tcp, *n2.chain.layers]

        def parked():
            """A fire-and-forget entry *label* of node2's holding the sentinel.

            The walk stays inside the entry's own arguments: an RLL peer
            state holds its timer, and through it the layer and the queue,
            where some other frame may hold the sentinel."""
            return any(
                entry[2] is None
                and entry[5] == label
                and any(entry[3].__self__ is owner for owner in node2)
                and sentinel_holders([entry[4]], prune=[sim, *node2])
                for entry in sim.queue._heap
            )

        while not parked():
            assert sim.step(), f"no sentinel frame was ever parked in {label}"
        tb.crash_node("node2")
        n1.crash()  # silence the peer too: it would rightly retransmit its own copy
        assert sentinel_holders([sim.queue])
        wire_frames_at_crash = n1.nic.tx_frames + n2.nic.tx_frames

        # Past every deferral and the hub's backlog; well inside the 42 ms a
        # revived RLL window would keep retransmitting the frame for.
        sim.run_for(ms(20))
        n1.reboot()
        n2.reboot()
        rebooted = sim.now
        layers = [n1, n2, *n1.chain.layers, *n2.chain.layers]
        assert sentinel_holders([sim.queue, *layers], prune=[sniffed]) == []

        got = []
        n2.udp.bind(9).on_receive = lambda payload, ip, port: got.append(payload)
        n1.udp.bind(9).on_receive = lambda payload, ip, port: got.append(payload)
        n1.udp.bind(0).sendto(b"new life, from node1", n2.ip, 9)
        n2.udp.bind(0).sendto(b"new life, from node2", n1.ip, 9)
        sim.run_for(ms(50))
        assert sorted(got) == [b"new life, from node1", b"new life, from node2"]
        assert [t for t, frame in sniffed if t >= rebooted and SENTINEL in frame] == []
        assert n1.nic.tx_frames + n2.nic.tx_frames > wire_frames_at_crash  # the stacks work
        assert sentinel_holders([sim.queue, *layers], prune=[sniffed]) == []

    def test_parked_rll_rx_cannot_revive_the_dead_window(self, sim):
        """The other door back in: an ``rll:rx`` parked at the crash whose
        piggybacked ack advances the dead life's window without emptying it
        would re-arm that window's retransmission timer."""
        _, h1, h2 = make_two_hosts(sim)  # h1 speaks no RLL: it never acks
        rll = RllLayer(sim)
        h2.chain.splice_above_driver(rll)
        sender = h2.udp.bind(0)
        sender.sendto(SENTINEL, h1.ip, 9)
        sender.sendto(SENTINEL, h1.ip, 9)
        sim.run_for(ms(1))
        assert rll.data_sent == 2 and rll.acks_received == 0  # seq 0 and 1 sit in the window
        inner = h2.mac.packed + h1.mac.packed + b"\x08\x00" + bytes(46)
        h2.nic.deliver(encap_data_fast(inner, seq=0, ack=1))
        while "rll:rx" not in [label for _, label in sim.queue.snapshot()]:
            assert sim.step()
        h2.crash()
        sim.run_for(ms(1))
        h2.reboot()
        on_the_wire = h2.nic.tx_frames
        assert sentinel_holders([sim.queue, h2, *h2.chain.layers]) == []
        sim.run_for(ms(50))
        assert rll.retransmissions == 0 and h2.nic.tx_frames == on_the_wire

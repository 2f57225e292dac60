"""Event labels are part of the simulator's observable trace (the ``label``
a trace hook is called with): the media and the RTO timer build theirs once per
object instead of once per frame, and the strings must not change.

The pinned digest was taken at the commit before the labels were hoisted.
"""

import hashlib

from repro.net.packet import FrameView
from repro.sim import Simulator, seconds
from repro.stack.layers import FrameLayer
from repro.tcp import TcpState
from tests.conftest import make_two_hosts

PINNED_SHA256 = "4093fd218f7f2b477792bd37d54082a76f2a5ceb007e9fe45259b5f5eaaf562b"
PINNED_COUNT = 135
PINNED_LABELS = {
    "driver:node1-eth0:rx",
    "driver:node1-eth0:tx",
    "driver:node2-eth0:rx",
    "driver:node2-eth0:tx",
    "ip:rx",
    "ip:tx",
    "sw0:deliver",
    "sw0:forward",
    "sw0:txdone",
    "tcp:24576:rtx",
    "tcp:rx",
    "tcp:time-wait",
    "tcp:tx",
}


class DropFirstSynack(FrameLayer):
    def __init__(self):
        super().__init__("drop-synack")
        self.dropped = False

    def on_receive(self, frame_bytes: bytes) -> None:
        seg = FrameView(frame_bytes).tcp
        if seg is not None and seg.is_syn and seg.is_ack and not self.dropped:
            self.dropped = True
            return
        self.pass_up(frame_bytes)


def short_exchange_labels():
    """Handshake with one lost SYNACK (so the RTO timer fires), 3000 bytes
    one way, then a full close from both ends — on a switch, default costs."""
    sim = Simulator(seed=1234)
    _, h1, h2 = make_two_hosts(sim)
    h1.chain.splice_below_ip(DropFirstSynack())
    labels = []
    sim.add_trace_hook(lambda when, seq, label: labels.append(label))
    h2.tcp.listen(0x4000, lambda accepted: setattr(accepted, "on_remote_close", accepted.close))
    conn = h1.tcp.connect(h2.ip, 0x4000, local_port=0x6000)

    def send_and_close():
        conn.send(bytes(3000))
        conn.close()

    conn.on_established = send_and_close
    sim.run_until(seconds(10))
    assert conn.state is TcpState.CLOSED and conn.retransmissions == 1
    return labels


def test_label_sequence_of_a_short_tcp_exchange_is_pinned():
    labels = short_exchange_labels()
    assert set(labels) == PINNED_LABELS
    assert len(labels) == PINNED_COUNT
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == PINNED_SHA256, labels


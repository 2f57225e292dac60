"""UDP echo client/server — the workload behind the paper's Fig 8.

The client sends fixed-size datagrams, one at a time, and measures the
round-trip time of each echo.  Per-packet RTTs feed the latency-overhead
benchmark: Fig 8 plots the percentage increase in RTT caused by inserting
the VirtualWire layer, as a function of the number of filter rules.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Simulator
from ..stack.node import Host

DEFAULT_PAYLOAD = 1000
DEFAULT_PORT = 7  # the traditional echo port


class EchoServer:
    """Echoes every datagram back to its sender."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.socket = host.udp.bind(DEFAULT_PORT)
        self.socket.on_receive = self._echo
        self.echoed = 0

    def _echo(self, payload: bytes, src_ip, src_port: int) -> None:
        self.echoed += 1
        self.socket.sendto(payload, src_ip, src_port)

    def close(self) -> None:
        self.socket.close()


class EchoClient:
    """Ping-pong client: sends the next probe when the echo returns."""

    def __init__(
        self,
        host: Host,
        server_ip,
        payload_size: int = DEFAULT_PAYLOAD,
        probes: int = 100,
        timeout_ns: int = 1_000_000_000,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.server_ip = server_ip
        self.payload_size = payload_size
        self.probes_target = probes
        self.timeout_ns = timeout_ns
        self.socket = host.udp.bind(0)
        self.socket.on_receive = self._on_echo
        self.rtts_ns: List[int] = []
        self.timeouts = 0
        self._sent_at: Optional[int] = None
        self._seq = 0
        self._timer = self.sim.timer(self._on_timeout, "echo:timeout")
        self.done = False
        self.on_done = None

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self._seq >= self.probes_target:
            self._finish()
            return
        self._seq += 1
        payload = self._seq.to_bytes(4, "big") + bytes(self.payload_size - 4)
        self._sent_at = self.sim.now
        self.socket.sendto(payload, self.server_ip, DEFAULT_PORT)
        self._timer.start(self.timeout_ns)

    def _on_echo(self, payload: bytes, src_ip, src_port: int) -> None:
        if self._sent_at is None or len(payload) < 4:
            return
        if int.from_bytes(payload[:4], "big") != self._seq:
            return  # a late echo of an already timed-out probe
        self._timer.stop()
        self.rtts_ns.append(self.sim.now - self._sent_at)
        self._sent_at = None
        self._send_next()

    def _on_timeout(self) -> None:
        self.timeouts += 1
        self._sent_at = None
        self._send_next()

    def _finish(self) -> None:
        if not self.done:
            self.done = True
            if self.on_done is not None:
                self.on_done()

    @property
    def mean_rtt_ns(self) -> float:
        if not self.rtts_ns:
            return 0.0
        return sum(self.rtts_ns) / len(self.rtts_ns)

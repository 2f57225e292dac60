"""ARP: dynamic IPv4-to-MAC resolution (RFC 826 subset).

The testbed pre-fills static neighbour tables by default so fault scripts
stay minimal, but a real LAN resolves addresses with ARP — and ARP itself
is a protocol worth injecting faults into (drop the replies and watch the
sender stall).  Installing :class:`ArpService` on a host replaces the
static table as the resolution path: outgoing packets to unknown IPs are
queued, a broadcast ARP request goes out, and the queue drains when the
reply arrives.  Requests and replies are ordinary frames through the full
chain, so the VirtualWire engine sees and can manipulate them.

Wire format (EtherType 0x0806, Ethernet/IPv4 hardware/protocol types):

====== ==== =================================
offset size field
====== ==== =================================
14     2    hardware type (1 = Ethernet)
16     2    protocol type (0x0800)
18     1    hardware size (6)
19     1    protocol size (4)
20     2    opcode (1 request, 2 reply)
22     6    sender MAC
28     4    sender IP
32     6    target MAC (zero in requests)
38     4    target IP
====== ==== =================================
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..errors import PacketError
from ..net.addresses import IpAddress, MacAddress
from ..net.bytesutil import pack_u16, read_u16
from ..net.frame import ETHERTYPE_ARP, EthernetFrame
from ..sim import NS_PER_MS, NS_PER_SEC, Simulator

OP_REQUEST = 1
OP_REPLY = 2
PAYLOAD_LEN = 28

#: Re-ask after this long without a reply.
DEFAULT_RETRY_NS = 100 * NS_PER_MS
#: Give up (and drop queued packets) after this many requests.
DEFAULT_MAX_REQUESTS = 5
#: Cache entries expire after this long.
DEFAULT_CACHE_TTL_NS = 60 * NS_PER_SEC
#: Bound on packets queued per unresolved destination.
DEFAULT_PENDING_LIMIT = 16


class ArpMessage:
    """A decoded ARP request or reply."""

    __slots__ = ("opcode", "sender_mac", "sender_ip", "target_mac", "target_ip")

    def __init__(self, opcode, sender_mac, sender_ip, target_mac, target_ip) -> None:
        if opcode not in (OP_REQUEST, OP_REPLY):
            raise PacketError(f"bad ARP opcode {opcode}")
        self.opcode = opcode
        self.sender_mac = MacAddress(sender_mac)
        self.sender_ip = IpAddress(sender_ip)
        self.target_mac = MacAddress(target_mac)
        self.target_ip = IpAddress(target_ip)

    @property
    def is_request(self) -> bool:
        return self.opcode == OP_REQUEST

    def to_payload(self) -> bytes:
        return (
            pack_u16(1)  # Ethernet
            + pack_u16(0x0800)  # IPv4
            + bytes([6, 4])
            + pack_u16(self.opcode)
            + self.sender_mac.packed
            + self.sender_ip.packed
            + self.target_mac.packed
            + self.target_ip.packed
        )

    @classmethod
    def parse(cls, payload: bytes) -> "ArpMessage":
        if len(payload) < PAYLOAD_LEN:
            raise PacketError(f"ARP payload of {len(payload)} bytes is too short")
        if read_u16(payload, 0) != 1 or read_u16(payload, 2) != 0x0800:
            raise PacketError("unsupported ARP hardware/protocol types")
        return cls(
            opcode=read_u16(payload, 6),
            sender_mac=payload[8:14],
            sender_ip=payload[14:18],
            target_mac=payload[18:24],
            target_ip=payload[24:28],
        )

    def __repr__(self) -> str:
        kind = "REQUEST" if self.is_request else "REPLY"
        return (
            f"ArpMessage({kind}, {self.sender_ip}/{self.sender_mac} -> "
            f"{self.target_ip})"
        )


class _PendingResolution:
    __slots__ = ("packets", "attempts", "timer")

    def __init__(self) -> None:
        self.packets: Deque[Tuple[int, bytes]] = deque()  # (protocol, payload)
        self.attempts = 0
        self.timer = None


class ArpService:
    """Dynamic resolution replacing a host's static neighbour table."""

    def __init__(
        self,
        host,
        retry_ns: int = DEFAULT_RETRY_NS,
        max_requests: int = DEFAULT_MAX_REQUESTS,
        cache_ttl_ns: int = DEFAULT_CACHE_TTL_NS,
        pending_limit: int = DEFAULT_PENDING_LIMIT,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.retry_ns = retry_ns
        self.max_requests = max_requests
        self.cache_ttl_ns = cache_ttl_ns
        self.pending_limit = pending_limit
        self._cache: Dict[IpAddress, Tuple[MacAddress, int]] = {}
        self._pending: Dict[IpAddress, _PendingResolution] = {}
        # Statistics.
        self.requests_sent = 0
        self.replies_sent = 0
        self.replies_received = 0
        self.resolution_failures = 0
        self.packets_dropped = 0
        host.chain.demux.register(ETHERTYPE_ARP, self._receive_frame)
        # Take over the IP layer's resolution/output path.
        self._ip = host.ip_layer
        self._original_send = self._ip.send
        self._ip.send = self._send_with_resolution  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def lookup(self, ip: IpAddress) -> Optional[MacAddress]:
        """A cached, unexpired binding, or None."""
        entry = self._cache.get(IpAddress(ip))
        if entry is None:
            return None
        mac, stamp = entry
        if self.sim.now - stamp > self.cache_ttl_ns:
            del self._cache[IpAddress(ip)]
            return None
        return mac

    def _learn(self, ip: IpAddress, mac: MacAddress) -> None:
        self._cache[ip] = (mac, self.sim.now)
        self._ip.add_neighbor(ip, mac)  # keep the fast path in sync
        pending = self._pending.pop(ip, None)
        if pending is not None:
            if pending.timer is not None:
                pending.timer.cancel()
            for protocol, payload in pending.packets:
                self._original_send(ip, protocol, payload)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _send_with_resolution(self, dst_ip, protocol: int, payload: bytes) -> None:
        dst_ip = IpAddress(dst_ip)
        if self.lookup(dst_ip) is not None:
            self._original_send(dst_ip, protocol, payload)
            return
        pending = self._pending.get(dst_ip)
        if pending is None:
            pending = _PendingResolution()
            self._pending[dst_ip] = pending
            self._ask(dst_ip, pending)
        if len(pending.packets) >= self.pending_limit:
            self.packets_dropped += 1
            return
        pending.packets.append((protocol, payload))

    def _ask(self, dst_ip: IpAddress, pending: _PendingResolution) -> None:
        pending.attempts += 1
        if pending.attempts > self.max_requests:
            # Resolution failed: RFC behaviour is to drop queued traffic.
            self.resolution_failures += 1
            self.packets_dropped += len(pending.packets)
            self._pending.pop(dst_ip, None)
            return
        self.requests_sent += 1
        request = ArpMessage(
            OP_REQUEST,
            self.host.mac,
            self.host.ip,
            MacAddress(b"\x00" * 6),
            dst_ip,
        )
        frame = EthernetFrame(
            MacAddress.BROADCAST, self.host.mac, ETHERTYPE_ARP, request.to_payload()
        )
        self.host.chain.demux.send_frame(frame)
        pending.timer = self.sim.after(
            self.retry_ns, lambda: self._ask(dst_ip, pending), "arp:retry"
        )

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------

    def _receive_frame(self, frame_bytes: bytes) -> None:
        try:
            message = ArpMessage.parse(frame_bytes[14:])
        except PacketError:
            return
        # Opportunistic learning from any ARP traffic naming the sender.
        self._learn(message.sender_ip, message.sender_mac)
        if message.is_request and message.target_ip == self.host.ip:
            self.replies_sent += 1
            reply = ArpMessage(
                OP_REPLY,
                self.host.mac,
                self.host.ip,
                message.sender_mac,
                message.sender_ip,
            )
            frame = EthernetFrame(
                message.sender_mac, self.host.mac, ETHERTYPE_ARP, reply.to_payload()
            )
            self.host.chain.demux.send_frame(frame)
        elif not message.is_request:
            self.replies_received += 1

    def __repr__(self) -> str:
        return (
            f"ArpService({self.host.name}, cache={len(self._cache)}, "
            f"pending={len(self._pending)})"
        )


def install_arp(hosts, clear_static: bool = True, **kwargs) -> Dict[str, ArpService]:
    """Install ARP on each host; optionally purge static neighbour entries

    (keeping each host's own binding) so resolution genuinely exercises
    the protocol.
    """
    services = {}
    for host in hosts:
        if clear_static:
            host.ip_layer.clear_neighbors()
        services[host.name] = ArpService(host, **kwargs)
    return services

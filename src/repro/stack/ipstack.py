"""The IPv4 layer of a host.

Routing is the degenerate LAN case the paper's testbeds use: every
destination is on-link, resolved through a static neighbour table the
testbed builder fills in (no ARP traffic to pollute fault scripts).
Received packets are checksum-verified and demultiplexed to the registered
transport protocol, which gets the source address and the payload bytes
(the destination is this host's address by then).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Union

from ..errors import PacketError, StackError
from ..net.addresses import IpAddress, MacAddress
from ..net.fastpath import encode_ipv4_frame, parse_ipv4_frame
from ..net.frame import ETHERTYPE_IPV4
from ..sim import Simulator
from .costs import CostModel
from .layers import EthertypeDemux

#: Transport handler: (src_ip, payload) -> None.
ProtocolHandler = Callable[[IpAddress, bytes], None]


class IpLayer:
    """Minimal IPv4 input/output with static neighbour resolution."""

    def __init__(
        self,
        sim: Simulator,
        demux: EthertypeDemux,
        local_mac: MacAddress,
        local_ip: IpAddress,
        costs: CostModel,
    ) -> None:
        self.sim = sim
        self.demux = demux
        self.local_mac = local_mac
        self.local_ip = local_ip
        self.costs = costs
        #: The one IP-to-MAC table, keyed by the packed address so the
        #: per-packet lookup in :meth:`send` hashes ``bytes`` in C.
        self._neighbors: Dict[bytes, MacAddress] = {local_ip.packed: local_mac}
        self._protocols: Dict[int, ProtocolHandler] = {}
        self._ident = itertools.count(1)
        self.tx_packets = 0
        self.rx_packets = 0
        self.checksum_drops = 0
        self.misaddressed_drops = 0
        self.unclaimed_protocol_drops = 0
        demux.register(ETHERTYPE_IPV4, self._receive_frame)

    # -- configuration ------------------------------------------------------

    def add_neighbor(self, ip: Union[str, IpAddress], mac: Union[str, MacAddress]) -> None:
        """Install a static IP-to-MAC binding (the testbed's ARP substitute)."""
        self._neighbors[IpAddress(ip).packed] = MacAddress(mac)

    def resolve(self, ip: Union[str, IpAddress]) -> MacAddress:
        """Return the MAC for an on-link IP, raising if it is unknown."""
        ip = IpAddress(ip)
        try:
            return self._neighbors[ip.packed]
        except KeyError:
            raise StackError(f"no neighbour entry for {ip} on {self.local_ip}") from None

    def register_protocol(self, protocol: int, handler: ProtocolHandler) -> None:
        if protocol in self._protocols:
            raise StackError(f"IP protocol {protocol} already registered")
        self._protocols[protocol] = handler

    # -- output path --------------------------------------------------------

    def send(self, dst_ip: Union[str, IpAddress], protocol: int, payload: bytes) -> None:
        """Wrap *payload* in IPv4+Ethernet and push it down the frame chain."""
        if not isinstance(dst_ip, IpAddress):
            dst_ip = IpAddress(dst_ip)
        dst_packed = dst_ip.packed
        # The ident is consumed before neighbour resolution, so a failed
        # resolve still advances the sequence.
        ident = next(self._ident) & 0xFFFF
        dst_mac = self._neighbors.get(dst_packed)
        if dst_mac is None:
            dst_mac = self.resolve(dst_ip)  # raises StackError naming the peer
        frame_bytes = encode_ipv4_frame(
            dst_mac.packed,
            self.local_mac.packed,
            self.local_ip.packed,
            dst_packed,
            protocol,
            ident,
            payload,
        )
        self.tx_packets += 1
        self.sim.defer(self.costs.ip_ns, self.demux.send_frame_bytes, "ip:tx", frame_bytes)

    # -- input path ---------------------------------------------------------

    def _receive_frame(self, frame_bytes: bytes) -> None:
        try:
            src, dst, protocol, payload = parse_ipv4_frame(frame_bytes)
        except PacketError:  # malformed header or (ChecksumError) bad checksum
            self.checksum_drops += 1
            return
        if dst != self.local_ip:
            self.misaddressed_drops += 1
            return
        self.sim.defer(self.costs.ip_ns, self._dispatch, "ip:rx", src, protocol, payload)

    def _dispatch(self, src: IpAddress, protocol: int, payload: bytes) -> None:
        handler = self._protocols.get(protocol)
        if handler is None:
            self.unclaimed_protocol_drops += 1
            return
        self.rx_packets += 1
        handler(src, payload)

    def __repr__(self) -> str:
        return f"IpLayer({self.local_ip}, {len(self._neighbors)} neighbours)"

"""Byte-accurate network substrate.

One Ethernet/IPv4/UDP/TCP frame codec (:mod:`repro.net.fastpath`) whose wire
offsets match the paper's filter scripts, the stack's header value classes,
a lazy byte view for traces (:class:`FrameView`), plus NICs, links,
hubs/buses and learning switches with a shared
bandwidth/propagation/bit-error service model.  The object-per-layer codec
the data path once used is a test oracle (tests/oracles/codec.py).
"""

from .addresses import IpAddress, MacAddress
from .frame import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_RETHER,
    ETHERTYPE_RLL,
    ETHERTYPE_VW_CONTROL,
)
from .ip import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Packet
from .link import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_PROPAGATION_NS,
    DEFAULT_QUEUE_FRAMES,
    Hub,
    Medium,
    PointToPointLink,
    SharedBus,
)
from .nic import Nic
from .packet import FrameView
from .switch import LearningSwitch
from .tcp_segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FLAG_URG,
    TcpSegment,
    flags_to_str,
)
from .topology import Topology
from .udp import UdpDatagram

__all__ = [
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_PROPAGATION_NS",
    "DEFAULT_QUEUE_FRAMES",
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_RETHER",
    "ETHERTYPE_RLL",
    "ETHERTYPE_VW_CONTROL",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "FLAG_URG",
    "FrameView",
    "Hub",
    "IpAddress",
    "Ipv4Packet",
    "LearningSwitch",
    "MacAddress",
    "Medium",
    "Nic",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PointToPointLink",
    "SharedBus",
    "TcpSegment",
    "Topology",
    "UdpDatagram",
    "flags_to_str",
]

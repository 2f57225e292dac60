"""Ethernet II framing: the EtherTypes and the header and MTU sizes.

The VirtualWire filter language addresses raw frames by byte offset, so the
frame layout here matches the paper exactly: destination MAC at offset 0,
source MAC at offset 6, EtherType at offset 12, payload from offset 14.
The Rether control packets in Fig 6 match ``(12 2 0x9900)`` — the Rether
EtherType — and the TCP filters in Fig 2 assume a 14-byte Ethernet header
followed by a 20-byte IPv4 header.
"""

from __future__ import annotations

#: Standard and project-local EtherType values.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
#: Rether control traffic (paper Fig 6: filter tuple ``(12 2 0x9900)``).
ETHERTYPE_RETHER = 0x9900
#: VirtualWire control-plane frames (paper §5.2: "payloads of raw Ethernet
#: frames").  0x88B5 is the IEEE local-experimental EtherType.
ETHERTYPE_VW_CONTROL = 0x88B5
#: Reliable Link Layer encapsulation (paper §3.3).
ETHERTYPE_RLL = 0x88B6

HEADER_LEN = 14
#: Classic Ethernet payload bound; our links enforce it.
MAX_PAYLOAD = 1500


"""IPv4 constants (:mod:`repro.net.fastpath` owns the wire form).

The wire form is the fixed 20-byte header with a real RFC 1071 header
checksum and no options, which pins the transport header at frame offset
34 — the offset every filter in the paper's Fig 2 relies on.
Fragmentation is not modelled (the testbed MTU is uniform); the IP layer
sends with DF set and hands the transport only the source address and the
payload.
"""

HEADER_LEN = 20
PROTO_TCP = 6
PROTO_UDP = 17

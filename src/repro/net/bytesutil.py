"""Byte-level helpers shared by the header codecs.

Includes the ones-complement Internet checksum (RFC 1071) used by IPv4, UDP
and TCP — in a per-word form and a one-pass form (see docs/PERF.md) —
big-endian field packing helpers, and a hexdump for traces.
"""

from __future__ import annotations

from ..errors import PacketError


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement sum over *data* (odd length is zero-padded).

    The per-word form the readable header classes use; the data path gets
    the identical value (pinned by tests/props/test_props_codec.py) in one
    C-level pass from ``fold_checksum(checksum_sum16(data))``.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum_sum16(data) -> int:
    """Folded big-endian ones-complement word sum of *data* (not complemented).

    One C-level pass: read *data* as a single big-endian integer and reduce
    it mod 0xFFFF.  Because 2**16 = 1 (mod 0xFFFF), that integer and the sum
    of its 16-bit words have the same residue, and the residue is exactly
    the end-around-carry fold of the sum but for one case — a nonzero sum
    folds to 0xFFFF where the residue reads 0.  So: all-zero input gives 0,
    any other multiple of 0xFFFF gives 0xFFFF (all-ones input included),
    everything else its residue.  An odd length is zero-padded, i.e. the
    integer is shifted up one byte, like the checksum itself; only the final
    fragment of a checksum may be odd.

    The result is a plain folded word sum, so partial sums stay addable:
    callers combine it with sums over other fragments or with
    integer-derived header sums and fold once at the end
    (:func:`fold_checksum`).  *data* may be any C-contiguous bytes-like
    object (``bytes``, ``bytearray``, ``memoryview``).
    """
    number = int.from_bytes(data, "big")
    if len(data) & 1:
        number <<= 8
    return number % 0xFFFF or (0xFFFF if number else 0)


def fold_checksum(total: int) -> int:
    """Fold an accumulated big-endian word sum and complement it."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if *data* (checksum field included) sums to the magic 0."""
    return internet_checksum(data) == 0


def pack_u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise PacketError(f"u16 out of range: {value}")
    return value.to_bytes(2, "big")


def pack_u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise PacketError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def read_u16(data: bytes, offset: int) -> int:
    _check_bounds(data, offset, 2)
    return int.from_bytes(data[offset : offset + 2], "big")


def read_u32(data: bytes, offset: int) -> int:
    _check_bounds(data, offset, 4)
    return int.from_bytes(data[offset : offset + 4], "big")


def _check_bounds(data: bytes, offset: int, size: int) -> None:
    if offset < 0 or offset + size > len(data):
        raise PacketError(
            f"read of {size} bytes at offset {offset} exceeds packet length {len(data)}"
        )


def patch_bytes(data: bytes, offset: int, replacement: bytes) -> bytes:
    """Return a copy of *data* with *replacement* spliced in at *offset*."""
    _check_bounds(data, offset, len(replacement))
    return data[:offset] + replacement + data[offset + len(replacement) :]


def hexdump(data: bytes, width: int = 16) -> str:
    """Classic offset/hex/ascii dump, used by the trace renderer."""
    lines = []
    for start in range(0, len(data), width):
        chunk = data[start : start + width]
        hex_part = " ".join(f"{b:02x}" for b in chunk)
        ascii_part = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{start:08x}  {hex_part:<{width * 3}} {ascii_part}")
    return "\n".join(lines)

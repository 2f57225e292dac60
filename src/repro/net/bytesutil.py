"""Byte-level helpers of the frame codec and the fault actions.

The ones-complement Internet checksum (RFC 1071) that IPv4, UDP and TCP
use, in the one-pass form :mod:`repro.net.fastpath` sums with (see
docs/PERF.md); the bounds-checked ``read_u16`` the demux and the chaos
layer read ethertypes with; and ``patch_bytes``, MODIFY's splice.  The
per-word checksum and the field packers the reference codec builds with
live beside it in tests/oracles/codec.py.
"""

from __future__ import annotations

from ..errors import PacketError


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


def read_u16(data: bytes, offset: int) -> int:
    _check_bounds(data, offset, 2)
    return int.from_bytes(data[offset : offset + 2], "big")


def _check_bounds(data: bytes, offset: int, size: int) -> None:
    if offset < 0 or offset + size > len(data):
        raise PacketError(
            f"read of {size} bytes at offset {offset} exceeds packet length {len(data)}"
        )


def patch_bytes(data: bytes, offset: int, replacement: bytes) -> bytes:
    """Return a copy of *data* with *replacement* spliced in at *offset*."""
    _check_bounds(data, offset, len(replacement))
    return data[:offset] + replacement + data[offset + len(replacement) :]

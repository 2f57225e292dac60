"""Modulo-2^32 sequence-number arithmetic (RFC 793 style)."""

from __future__ import annotations

MOD = 1 << 32
_HALF = 1 << 31


def seq_add(seq: int, delta: int) -> int:
    """Advance *seq* by *delta*, wrapping modulo 2^32."""
    return (seq + delta) % MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance from *b* to *a* (positive when a is 'after' b)."""
    delta = (a - b) % MOD
    return delta - MOD if delta >= _HALF else delta


def seq_le(a: int, b: int) -> bool:
    return seq_diff(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    return seq_diff(a, b) > 0

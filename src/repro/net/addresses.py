"""MAC and IPv4 address value types.

Addresses are small immutable objects wrapping their canonical byte
representation.  They hash and compare by value, so they can key routing and
node tables, and they render in the same textual forms the paper's Node Table
uses (``00:46:61:af:fe:23`` and ``192.168.1.1``).
"""

from __future__ import annotations

import re
from typing import Union

from ..errors import AddressError

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2})(:[0-9a-fA-F]{2}){5}$")
_IP_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


class MacAddress:
    """A 48-bit Ethernet hardware address."""

    __slots__ = ("_bytes",)

    BROADCAST: "MacAddress"

    def __init__(self, value: Union[str, bytes, "MacAddress"]) -> None:
        if isinstance(value, MacAddress):
            self._bytes = value._bytes
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise AddressError(f"MAC address needs 6 bytes, got {len(value)}")
            self._bytes = bytes(value)
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"malformed MAC address: {value!r}")
            self._bytes = bytes(int(part, 16) for part in value.split(":"))
        else:
            raise AddressError(f"cannot build MAC address from {type(value).__name__}")

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered MAC for auto-generated testbeds."""
        if not 0 <= index < 2**32:
            raise AddressError(f"MAC index out of range: {index}")
        return cls(bytes([0x02, 0x00]) + index.to_bytes(4, "big"))

    @property
    def packed(self) -> bytes:
        """The 6-byte wire representation."""
        return self._bytes

    @property
    def is_broadcast(self) -> bool:
        return self._bytes == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        return bool(self._bytes[0] & 0x01)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self._bytes)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


MacAddress.BROADCAST = MacAddress(b"\xff" * 6)


class IpAddress:
    """An IPv4 address."""

    __slots__ = ("_bytes",)

    def __init__(self, value: Union[str, bytes, int, "IpAddress"]) -> None:
        if isinstance(value, IpAddress):
            self._bytes = value._bytes
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise AddressError(f"IPv4 address needs 4 bytes, got {len(value)}")
            self._bytes = bytes(value)
        elif isinstance(value, int):
            if not 0 <= value < 2**32:
                raise AddressError(f"IPv4 integer out of range: {value}")
            self._bytes = value.to_bytes(4, "big")
        elif isinstance(value, str):
            if not _IP_RE.match(value):
                raise AddressError(f"malformed IPv4 address: {value!r}")
            parts = [int(p) for p in value.split(".")]
            if any(p > 255 for p in parts):
                raise AddressError(f"IPv4 octet out of range: {value!r}")
            self._bytes = bytes(parts)
        else:
            raise AddressError(f"cannot build IPv4 address from {type(value).__name__}")

    @classmethod
    def from_index(cls, index: int, network: str = "192.168.1.0") -> "IpAddress":
        """Deterministic host address inside a /24 for auto-generated testbeds."""
        if not 1 <= index <= 254:
            raise AddressError(f"host index must be in 1..254, got {index}")
        base = IpAddress(network)
        return cls(base._bytes[:3] + bytes([index]))

    @property
    def packed(self) -> bytes:
        """The 4-byte wire representation."""
        return self._bytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IpAddress) and self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(("ip", self._bytes))

    def __str__(self) -> str:
        return ".".join(str(b) for b in self._bytes)

    def __repr__(self) -> str:
        return f"IpAddress('{self}')"

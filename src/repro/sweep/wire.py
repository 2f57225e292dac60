"""The VirtualWire job protocol as functions over bytes: no sockets, no clock.

Every peer — the parent's :class:`~repro.sweep.fleet.FleetScheduler`,
``repro worker`` and the slot processes (:mod:`repro.sweep.remote`), the
virtual-time fleet harness in ``tests/sweep/fleet_sim.py`` — builds and parses every message here, so
the format is decided in one module.

Wire format — every message is one frame::

    +--------+------+----------+------------------+----------+
    | magic  | type | length   | payload          | crc32    |
    | "VWJP" | u8   | u32 (BE) | length bytes     | u32 (BE) |
    +--------+------+----------+------------------+----------+

The CRC covers the type byte plus the payload, so a corrupted or
truncated frame is detected before anything is decoded;
:class:`FrameBuffer` is the one parser (magic, :data:`MAX_FRAME` and CRC
are checked nowhere else).  Every payload is canonical JSON: a TASK is
the cell's :func:`~repro.sweep.spec.export_task` bytes, its FSL script
text among the params.

**Authentication** (since v2): a TASK names code for the worker to
import and run, so a peer must prove knowledge of the fleet's pre-shared
secret *before* any TASK is decoded.  The handshake is a
mutual HMAC challenge/response folded into HELLO/WELCOME plus one AUTH
frame::

    parent                                worker
      | HELLO {version, nonce_p, meta,      |
      |        task_timeout}                |
      |------------------------------------>|
      | WELCOME {version, slots, nonce_w,   |
      |          proof=HMAC(k,"worker",     |
      |                     nonce_p|nonce_w)}|
      |<------------------------------------|   parent verifies proof
      | AUTH {proof=HMAC(k,"parent",        |
      |                  nonce_w|nonce_p)}  |
      |------------------------------------>|   worker verifies proof
      | GET x slots ...                     |

(A slot process's private socketpair skips the handshake: GET first.)
HELLO's ``task_timeout`` is the campaign's per-cell deadline, a positive
number of seconds or null; a worker answers anything else with BYE.
With no secret configured on either side the handshake still runs with an
empty key, preserving zero-config loopback fleets.  A peer with the wrong
(or a missing) secret is rejected — the worker answers BYE and closes
without ever decoding a TASK, a peer of another version is refused with a
version mismatch — and the parent sees every such refusal as
:class:`Refused`, the one failure redialling cannot heal.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from .spec import SweepError, SweepTask, resolve_fn

MAGIC = b"VWJP"

#: v2 added the authenticated handshake, v3 ships cells and programs as
#: canonical JSON, v4 sends HELLO's task deadline as one number, v5 ships
#: each cell's script inside its TASK (no PROGRAM frame); any other version
#: is refused with a version mismatch.
PROTOCOL_VERSION = 5

#: frame payloads larger than this are protocol errors, not allocations.
MAX_FRAME = 64 * 1024 * 1024

MSG_HELLO = 1  # parent -> worker: version + nonce + campaign meta
MSG_WELCOME = 2  # worker -> parent: version + slots + nonce + worker proof
MSG_GET = 3  # worker -> parent: one idle slot requests one task
MSG_TASK = 5  # parent -> worker: one campaign cell
MSG_ROW = 6  # worker -> parent: one completed result row
MSG_HEARTBEAT = 7  # worker -> parent: liveness
MSG_ERROR = 8  # worker -> parent: a cell died worker-side (slot crash)
MSG_BYE = 9  # either direction: orderly goodbye
MSG_AUTH = 10  # parent -> worker: the parent's HMAC proof

#: A worker heartbeats this often; the scheduler's timeout
#: (:data:`repro.sweep.fleet.HEARTBEAT_TIMEOUT_S`) is five of these.
HEARTBEAT_INTERVAL_S = 2.0

_HEADER = struct.Struct("!4sBI")
_CRC = struct.Struct("!I")

#: A TASK naming a function in these modules is refused before anything
#: is imported.
_REFUSED_MODULES = frozenset({"os", "subprocess", "posix", "nt", "builtins"})


class ProtocolError(SweepError):
    """A peer spoke something that is not the VirtualWire job protocol."""


class ConnectionLost(ProtocolError):
    """The TCP stream ended mid-conversation (EOF or reset)."""


class Refused(ProtocolError):
    """The peer answered the handshake with a refusal — BYE, a version
    mismatch or a proof that does not verify.  Redialling cannot change
    the answer, so the host is written off for the campaign."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _crc32_frame(mtype: int, payload: bytes) -> int:
    return zlib.crc32(bytes((mtype,)) + payload) & 0xFFFFFFFF


def encode_frame(mtype: int, payload: bytes) -> bytes:
    """One wire frame: header, payload, CRC over (type byte + payload)."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte protocol limit"
        )
    crc = _crc32_frame(mtype, payload)
    return _HEADER.pack(MAGIC, mtype, len(payload)) + payload + _CRC.pack(crc)


class FrameBuffer:
    """The incremental frame parser both peers read through."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def missing(self) -> int:
        """Bytes still needed before :meth:`next_frame` can return the
        current frame: the rest of the header first, then the rest of the
        frame it announces — a blocking reader that asks for no more than
        this never consumes the next frame's bytes.  Raises as
        :meth:`next_frame` does on a bad header."""
        if len(self._buffer) < _HEADER.size:
            return _HEADER.size - len(self._buffer)
        return max(0, self._header()[1] - len(self._buffer))

    def _header(self) -> Tuple[int, int]:
        """The buffered header as ``(message type, whole-frame size)``."""
        magic, mtype, length = _HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise ProtocolError(
                f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
            )
        if length > MAX_FRAME:
            raise ProtocolError(
                f"frame length {length} exceeds the {MAX_FRAME}-byte limit"
            )
        return mtype, _HEADER.size + length + _CRC.size

    def next_frame(self) -> Optional[Tuple[int, bytes]]:
        """Pop one complete frame, or ``None`` if more bytes are needed.

        Raises :class:`ProtocolError` on bad magic, a length prefix above
        the :data:`MAX_FRAME` limit (checked **before** any payload is
        buffered — a garbage length can never provoke an allocation) or a
        CRC mismatch.  The connection is unrecoverable after that.
        """
        if len(self._buffer) < _HEADER.size:
            return None
        mtype, total = self._header()
        if len(self._buffer) < total:
            return None
        payload = bytes(self._buffer[_HEADER.size:total - _CRC.size])
        (crc,) = _CRC.unpack_from(self._buffer, total - _CRC.size)
        del self._buffer[:total]
        if crc != _crc32_frame(mtype, payload):
            raise ProtocolError("frame CRC mismatch")
        return mtype, payload


def _json_payload(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _parse_json(payload: bytes, what: str) -> Dict[str, Any]:
    """A payload's JSON object; anything else is a protocol error."""
    try:
        parsed = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable {what} payload: {exc}") from None
    if not isinstance(parsed, dict):
        raise ProtocolError(f"{what} payload is not a JSON object")
    return parsed


# ---------------------------------------------------------------------------
# Pre-shared-key authentication: the handshake's messages
# ---------------------------------------------------------------------------


def _auth_proof(
    secret: Optional[bytes], role: str, nonce_a: str, nonce_b: str
) -> str:
    """HMAC-SHA256 proof of the shared secret over both handshake nonces.

    The *role* prefix and the nonce order differ between the worker's and
    the parent's proof, so one side's proof can never be replayed as the
    other's.  With no secret configured the key is empty — both-open
    peers still agree, a one-sided secret is always a mismatch.
    """
    key = secret if secret is not None else b""
    message = b"|".join(
        (b"vwjp-v2", role.encode("ascii"), nonce_a.encode(), nonce_b.encode())
    )
    return hmac.new(key, message, hashlib.sha256).hexdigest()


def hello_frame(
    nonce: str, meta: Optional[Dict[str, Any]], tasks: int, task_timeout: Optional[float]
) -> bytes:
    """The parent's opening frame: version, challenge and campaign meta.
    *task_timeout* is the campaign's per-cell deadline in seconds (or
    ``None``), which every worker slot arms for itself; the retry that
    follows a first overrun is fixed policy and does not travel."""
    meta = meta or {}
    return encode_frame(
        MSG_HELLO,
        _json_payload(
            {
                "version": PROTOCOL_VERSION,
                "nonce": nonce,
                "spec_name": meta.get("name"),
                "base_seed": meta.get("base_seed"),
                "tasks": tasks,
                "task_timeout": task_timeout,
            }
        ),
    )


def answer_welcome(
    mtype: int, payload: bytes, secret: Optional[bytes], nonce: str
) -> Tuple[int, bytes]:
    """Judge the worker's reply to HELLO (parent side).

    Returns ``(slots, AUTH frame)`` when the worker proved the secret.
    Raises :class:`Refused` when it said BYE, speaks another version or
    failed the proof, and plain :class:`ProtocolError` when the reply is
    not a handshake message at all (a peer that may yet become a worker).
    """
    if mtype == MSG_BYE:
        raise Refused(str(_parse_json(payload, "BYE").get("error", "refused")))
    if mtype != MSG_WELCOME:
        raise ProtocolError(f"expected WELCOME, got type {mtype}")
    welcome = _parse_json(payload, "WELCOME")
    if welcome.get("version") != PROTOCOL_VERSION:
        raise Refused(
            f"protocol version mismatch (worker speaks "
            f"{welcome.get('version')}, parent speaks {PROTOCOL_VERSION})"
        )
    worker_nonce = welcome.get("nonce")
    if not isinstance(worker_nonce, str) or len(worker_nonce) < 16:
        raise Refused("worker sent no handshake nonce (pre-v2 worker?)")
    expected = _auth_proof(secret, "worker", nonce, worker_nonce)
    if not hmac.compare_digest(str(welcome.get("proof", "")), expected):
        raise Refused(
            "worker failed authentication — its proof does not match this "
            "parent's secret (wrong or missing REPRO_SWEEP_SECRET / "
            "--secret-file?)"
        )
    try:
        slots = max(1, int(welcome.get("slots", 1)))
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(
            f"WELCOME advertises {welcome.get('slots')!r} slots"
        ) from None
    proof = _auth_proof(secret, "parent", worker_nonce, nonce)
    return slots, encode_frame(MSG_AUTH, _json_payload({"proof": proof}))


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def task_frame(payload: bytes) -> bytes:
    """TASK: one cell's :func:`~repro.sweep.spec.export_task` bytes."""
    return encode_frame(MSG_TASK, payload)


def task_index(payload: bytes) -> int:
    """The cell a TASK payload is for (all the relay reads of one)."""
    index = _parse_json(payload, "TASK").get("index")
    if type(index) is not int or index < 0:
        raise ProtocolError(f"TASK names no cell (index {index!r})")
    return index


def decode_task(payload: bytes) -> SweepTask:
    """A TASK payload back into its cell, the function resolved
    (:func:`resolve_fn`) only outside :data:`_REFUSED_MODULES`.
    :class:`ProtocolError` otherwise."""
    task = _parse_json(payload, "TASK")
    index, name, seed, fn, params = map(task.get, ("index", "name", "seed", "fn", "params"))
    if not (type(index) is int and index >= 0 and type(seed) is int and isinstance(name, str)
            and isinstance(fn, str) and isinstance(params, dict)):
        raise ProtocolError("TASK payload is not a cell {index, name, seed, fn, params}")
    if fn.partition(":")[0].partition(".")[0] in _REFUSED_MODULES:
        raise ProtocolError(f"TASK {index} names {fn!r}: refusing to run code from that module")
    try:
        function = resolve_fn(fn)
    except SweepError as exc:
        raise ProtocolError(f"TASK {index}: {exc}") from None
    return SweepTask(index, name, seed, function, params)


def casualty_frame(index: int, cause: str) -> bytes:
    """ERROR: cell *index* ended worker-side without a row (its process
    died, its TASK would not decode).  Sent by whoever owns the slot —
    ``repro worker``'s relay or the ``parallel`` shell, each for a process
    it forked — so a dead process is charged one way everywhere."""
    report = {"index": index, "error": f"worker died: {cause}"}
    return encode_frame(MSG_ERROR, _json_payload(report))

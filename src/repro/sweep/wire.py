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
truncated frame is detected before anything is deserialised;
:class:`FrameBuffer` is the one parser (magic, :data:`MAX_FRAME` and CRC
are checked nowhere else).  Control messages (HELLO/WELCOME/AUTH/GET/ROW/
HEARTBEAT/ERROR/BYE) carry canonical JSON; PROGRAM and TASK carry pickles
(task functions travel by module reference, compiled programs by value).

**Authentication** (protocol v2): the job protocol ships pickles, so a
peer must prove knowledge of the fleet's pre-shared secret *before* any
pickle-bearing frame is deserialised.  The handshake is a mutual HMAC
challenge/response folded into HELLO/WELCOME plus one AUTH frame::

    parent                                worker
      | HELLO {version, nonce_p, meta}      |
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
With no secret configured on either side the handshake still runs with an
empty key, preserving zero-config loopback fleets.  A peer with the wrong
(or a missing) secret is rejected — the worker answers BYE and closes
without ever unpickling a frame, a v1 peer (no nonce) is refused with a
version mismatch — and the parent sees every such refusal as
:class:`Refused`, the one failure redialling cannot heal.

Program shipping is content-addressed: a :class:`CompiledProgram` param
is replaced in the wire task by a :class:`ProgramRef` carrying its
:meth:`~repro.core.tables.CompiledProgram.content_hash`, and the parent
pushes the program bytes to a worker at most once per campaign — the
10k-cell grid over one script ships one program per host, not 10k.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import json
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .spec import SweepError, SweepTask

MAGIC = b"VWJP"

#: v2 added the authenticated HELLO/WELCOME/AUTH handshake; v1 peers are
#: rejected with a clear version-mismatch error.
PROTOCOL_VERSION = 2

#: frame payloads larger than this are protocol errors, not allocations.
MAX_FRAME = 64 * 1024 * 1024

MSG_HELLO = 1  # parent -> worker: version + nonce + campaign meta
MSG_WELCOME = 2  # worker -> parent: version + slots + nonce + worker proof
MSG_GET = 3  # worker -> parent: one idle slot requests one task
MSG_PROGRAM = 4  # parent -> worker: content-addressed compiled program
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
_INDEX = struct.Struct("!I")


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
    """A control frame's JSON object; anything else is a protocol error."""
    try:
        parsed = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable {what} payload: {exc}") from None
    if not isinstance(parsed, dict):
        raise ProtocolError(f"{what} payload is not a JSON object")
    return parsed


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses the classic RCE gadget modules.

    The handshake already authenticates the peer, but there is no reason
    to let a stray byte stream reach ``os.system`` — task functions and
    compiled programs only ever live under ``repro`` or the caller's own
    campaign modules, so the blocklist costs nothing.
    """

    def find_class(self, module: str, name: str) -> Any:
        qualified = f"{module}.{name}"
        if module in ("os", "subprocess", "posix", "nt") or qualified in (
            "builtins.eval",
            "builtins.exec",
            "builtins.compile",
            "builtins.open",
        ):
            raise ProtocolError(
                f"refusing to unpickle {qualified} from the job stream"
            )
        return super().find_class(module, name)


def _loads(payload: bytes, what: str) -> Any:
    try:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    except ProtocolError:
        raise
    except Exception as exc:  # noqa: BLE001 — any unpickle failure is protocol-level
        raise ProtocolError(f"undecodable {what} payload: {exc!r}") from None


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
    nonce: str, meta: Optional[Dict[str, Any]], tasks: int, watchdog: Optional[Any]
) -> bytes:
    """The parent's opening frame: version, challenge and campaign meta
    (*watchdog* is the campaign's :class:`~repro.sweep.runner.Watchdog`,
    which every worker slot arms for itself)."""
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
                "watchdog": (
                    {
                        "timeout": watchdog.timeout,
                        "retries": watchdog.retries,
                        "backoff": watchdog.backoff,
                    }
                    if watchdog
                    else None
                ),
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
    except (TypeError, ValueError):
        raise ProtocolError(
            f"WELCOME advertises {welcome.get('slots')!r} slots"
        ) from None
    proof = _auth_proof(secret, "parent", worker_nonce, nonce)
    return slots, encode_frame(MSG_AUTH, _json_payload({"proof": proof}))


# ---------------------------------------------------------------------------
# Content-addressed program shipping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramRef:
    """Wire placeholder for a :class:`CompiledProgram` param: its content
    hash.  The worker swaps the real program back in from its
    per-campaign store (pushed at most once per worker)."""

    hash: str


#: A pickle names a class by module path, so that path is wire format:
#: v2 peers know this class as ``repro.sweep.remote.ProgramRef`` (where
#: it was born, and where ``remote`` still exports it).
ProgramRef.__module__ = "repro.sweep.remote"


def export_task(task: SweepTask) -> Tuple[SweepTask, Dict[str, Any]]:
    """Split a task into its wire form and the programs it references.

    Every :class:`CompiledProgram` param becomes a :class:`ProgramRef`;
    the returned mapping is ``content_hash -> program`` for the scheduler
    to push (once per worker) before the task.
    """
    from ..core.tables import CompiledProgram  # local: avoid import cycle

    programs: Dict[str, Any] = {}
    params: Dict[str, Any] = {}
    for key, value in task.params.items():
        if isinstance(value, CompiledProgram):
            content = value.content_hash()
            programs[content] = value
            params[key] = ProgramRef(content)
        else:
            params[key] = value
    wire = SweepTask(
        index=task.index,
        name=task.name,
        seed=task.seed,
        fn=task.fn,
        params=params,
    )
    return wire, programs


def resolve_task(task: SweepTask, programs: Dict[str, Any]) -> SweepTask:
    """Swap :class:`ProgramRef` params back to real programs (worker side).

    Raises :class:`ProtocolError` when a referenced program was never
    pushed — a scheduler bug, not a task failure.
    """
    params: Dict[str, Any] = {}
    for key, value in task.params.items():
        if isinstance(value, ProgramRef):
            if value.hash not in programs:
                raise ProtocolError(
                    f"task {task.index} references program "
                    f"{value.hash[:12]}… which was never pushed"
                )
            params[key] = programs[value.hash]
        else:
            params[key] = value
    task.params = params
    return task


def program_frame(content: str, program: Any) -> bytes:
    """PROGRAM: one compiled program, keyed by its content hash."""
    return encode_frame(
        MSG_PROGRAM,
        pickle.dumps(
            {"hash": content, "program": program}, protocol=pickle.HIGHEST_PROTOCOL
        ),
    )


def task_frame(wire: SweepTask) -> bytes:
    """TASK: the cell's index in the clear (so an undecodable cell can
    still be reported by index), then the pickled :func:`export_task`
    form."""
    return encode_frame(
        MSG_TASK,
        _INDEX.pack(wire.index) + pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL),
    )


def casualty_frame(index: int, cause: str) -> bytes:
    """ERROR: cell *index* ended worker-side without a row (its process
    died, its TASK would not decode).  Sent by whoever owns the slot —
    ``repro worker``'s relay or the ``parallel`` shell, each for a process
    it forked — so a dead process is charged one way everywhere."""
    report = {"index": index, "error": f"worker died: {cause}"}
    return encode_frame(MSG_ERROR, _json_payload(report))


def split_task(payload: bytes) -> Tuple[int, bytes]:
    """A TASK payload as ``(index, pickle bytes)``."""
    if len(payload) < _INDEX.size:
        raise ProtocolError("TASK payload too short to carry a cell index")
    return _INDEX.unpack_from(payload)[0], payload[_INDEX.size:]

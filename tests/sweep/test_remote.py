"""The tcp backend: framing, cell shipping, the three-way differential
(serial vs pool vs tcp), fleet configuration and the failure model.

Real sockets and processes where the thing under test *is* the socket or
the process — the backend differential, journal + cache over tcp, one
TASK frame per cell, a slot death, a SIGKILLed server whose slots live
on.  Everything that is a scheduling decision (server death, retry
budget, whole-fleet loss, heartbeat silence, an unreachable fleet) runs
in virtual time on ``fleet_sim.py``.
"""

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time

import pytest

from repro.core.testbed import Testbed
from repro.sweep import (
    HOSTS_ENV,
    SECRET_ENV,
    SweepError,
    SweepSpec,
    default_hosts,
    parse_hosts,
    resolve_secret,
    run_sweep,
)
from repro.sweep import fleet as fleet_policy
from repro.sweep import remote
from repro.sweep.remote import WorkerServer, _fresh_nonce, read_frame
from repro.sweep.runner import execute_task
from repro.sweep.spec import export_task, task_fingerprint
from repro.sweep.wire import (
    MAGIC,
    MAX_FRAME,
    MSG_AUTH,
    MSG_BYE,
    MSG_GET,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_ROW,
    MSG_TASK,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameBuffer,
    ProtocolError,
    Refused,
    _auth_proof,
    _json_payload,
    _parse_json,
    answer_welcome,
    decode_task,
    encode_frame,
    hello_frame,
    task_frame,
    task_index,
)

from tests.sweep._remote_tasks import (
    ok_task,
    params_repr_task,
    server_killer_task,
    sigint_self_task,
    sleepy_task,
    slot_killer_task,
)
from tests.sweep.chaos import ChaosWorker
from tests.sweep.fleet_sim import FleetSim, ModelWorker, parse_frame, serial_bytes
from tests.sweep.test_runner import _gone, _noted_pids, _pid_task

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture
def fleet():
    """Two in-process WorkerServers, two slots each (4 total)."""
    servers = [WorkerServer(slots=2) for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    yield [(server.host, server.port) for server in servers]
    for server in servers:
        server.stop()


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(MSG_ROW, b'{"x":1}'))
            mtype, payload = read_frame(right)
            assert (mtype, payload) == (MSG_ROW, b'{"x":1}')
        finally:
            left.close()
            right.close()

    def test_frame_buffer_reassembles_byte_by_byte(self):
        frame = encode_frame(MSG_TASK, b"payload-bytes")
        buffer = FrameBuffer()
        got = []
        for i in range(len(frame)):
            assert got == []  # nothing pops until the last byte arrives
            buffer.feed(frame[i : i + 1])
            parsed = buffer.next_frame()
            if parsed is not None:
                got.append(parsed)
        assert got == [(MSG_TASK, b"payload-bytes")]
        assert buffer.next_frame() is None

    def test_two_frames_in_one_feed(self):
        buffer = FrameBuffer()
        buffer.feed(encode_frame(MSG_GET, b"{}") + encode_frame(MSG_BYE, b"{}"))
        assert buffer.next_frame() == (MSG_GET, b"{}")
        assert buffer.next_frame() == (MSG_BYE, b"{}")
        assert buffer.next_frame() is None

    def test_corrupted_payload_fails_crc(self):
        frame = bytearray(encode_frame(MSG_ROW, b'{"x":1}'))
        frame[10] ^= 0xFF  # flip a payload byte; CRC no longer matches
        buffer = FrameBuffer()
        buffer.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="CRC"):
            buffer.next_frame()

    def test_bad_magic_rejected(self):
        frame = b"NOPE" + encode_frame(MSG_ROW, b"{}")[4:]
        buffer = FrameBuffer()
        buffer.feed(frame)
        with pytest.raises(ProtocolError, match="magic"):
            buffer.next_frame()

    def test_oversized_length_rejected_before_buffering(self):
        header = struct.pack("!4sBI", MAGIC, MSG_ROW, MAX_FRAME + 1)
        buffer = FrameBuffer()
        buffer.feed(header)
        with pytest.raises(ProtocolError, match="limit"):
            buffer.next_frame()

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="limit"):
            encode_frame(MSG_ROW, b"\x00" * (MAX_FRAME + 1))

    def test_blocking_read_never_consumes_the_next_frame(self):
        """``read_frame`` is a blocking feed of the one parser: it asks
        the socket for exactly what the current frame still lacks."""
        left, right = socket.socketpair()
        try:
            left.sendall(
                encode_frame(MSG_GET, b"{}")
                + encode_frame(MSG_ROW, b"x" * 100_000)
                + encode_frame(MSG_BYE, b"")
            )
            assert read_frame(right) == (MSG_GET, b"{}")
            assert read_frame(right) == (MSG_ROW, b"x" * 100_000)
            assert read_frame(right) == (MSG_BYE, b"")
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda frame: b"NOPE" + frame[4:], "magic"),
            (lambda frame: struct.pack("!4sBI", MAGIC, MSG_ROW, MAX_FRAME + 1), "limit"),
            (lambda frame: frame[:-1] + bytes((frame[-1] ^ 1,)), "CRC"),
        ],
    )
    def test_blocking_read_applies_the_same_checks(self, damage, message):
        left, right = socket.socketpair()
        try:
            left.sendall(damage(encode_frame(MSG_ROW, b'{"x":1}')))
            with pytest.raises(ProtocolError, match=message):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_blocking_read_reports_eof_mid_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(MSG_ROW, b'{"x":1}')[:-3])
            left.close()
            with pytest.raises(ConnectionLost, match="mid-frame"):
                read_frame(right)
        finally:
            right.close()

    def test_task_payload_too_short_for_an_index(self):
        for payload in (b"\x00\x01", b"{}", b'{"index": -1}'):
            with pytest.raises(ProtocolError, match="TASK"):
                task_index(payload)


# ---------------------------------------------------------------------------
# Host parsing
# ---------------------------------------------------------------------------


class TestParseHosts:
    def test_comma_string(self):
        assert parse_hosts("a:1,b:2") == [("a", 1), ("b", 2)]

    def test_list_of_strings_and_tuples(self):
        assert parse_hosts(["a:1", ("b", 2), ("c", "3")]) == [
            ("a", 1),
            ("b", 2),
            ("c", 3),
        ]

    def test_ignores_empty_segments(self):
        assert parse_hosts("a:1,,b:2,") == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize(
        "bad",
        ["justahost", ":7777", "a:notaport", "a:0", "a:70000", ""],
    )
    def test_invalid_entries_are_sweep_errors(self, bad):
        with pytest.raises(SweepError):
            parse_hosts(bad)

    def test_invalid_entry_type_is_sweep_error(self):
        with pytest.raises(SweepError, match="host:port"):
            parse_hosts([42])

    def test_default_hosts_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV, raising=False)
        assert default_hosts() is None

    def test_default_hosts_from_env(self, monkeypatch):
        monkeypatch.setenv(HOSTS_ENV, "x:9,y:10")
        assert default_hosts() == [("x", 9), ("y", 10)]

    def test_invalid_env_names_the_knob(self, monkeypatch):
        monkeypatch.setenv(HOSTS_ENV, "nonsense")
        with pytest.raises(SweepError, match=HOSTS_ENV):
            default_hosts()

    def test_whitespace_around_entries_is_ignored(self):
        assert parse_hosts(" a:1 , b:2 ,\tc:3 ") == [
            ("a", 1),
            ("b", 2),
            ("c", 3),
        ]
        assert parse_hosts(["  a:1  "]) == [("a", 1)]

    def test_duplicate_entries_are_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            parse_hosts("a:1,b:2,a:1")
        # Whitespace variants of the same endpoint are still duplicates.
        with pytest.raises(SweepError, match="duplicate"):
            parse_hosts(["a:1", " a:1 "])
        with pytest.raises(SweepError, match="duplicate"):
            parse_hosts([("a", 1), ("a", 1)])

    @pytest.mark.parametrize("port", [0, -1, 65536, 100000])
    def test_out_of_range_ports_are_rejected(self, port):
        with pytest.raises(SweepError, match="1..65535"):
            parse_hosts(f"a:{port}")
        with pytest.raises(SweepError, match="1..65535"):
            parse_hosts([("a", port)])

    def test_port_bounds_are_inclusive(self):
        assert parse_hosts("a:1,b:65535") == [("a", 1), ("b", 65535)]

    @pytest.mark.parametrize("entry", ["[::1]:7777", "[fe80::1%eth0]:7", "::1:7777"])
    def test_ipv6_syntax_is_a_clear_error(self, entry):
        """IPv6 is documented as unsupported by the fleet syntax; the
        error says so instead of dialling a bogus host."""
        with pytest.raises(SweepError, match="not supported"):
            parse_hosts(entry)


# ---------------------------------------------------------------------------
# Pre-shared-key authentication units
# ---------------------------------------------------------------------------


class TestAuth:
    def test_resolve_secret_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SECRET_ENV, "from-env")
        path = tmp_path / "secret"
        path.write_text("from-file\n")
        assert resolve_secret("explicit") == b"explicit"
        assert resolve_secret(b"raw-bytes") == b"raw-bytes"
        assert resolve_secret(secret_file=str(path)) == b"from-file"
        assert resolve_secret() == b"from-env"
        monkeypatch.delenv(SECRET_ENV)
        assert resolve_secret() is None

    def test_empty_or_unreadable_secret_file_is_sweep_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("  \n")
        with pytest.raises(SweepError, match="empty"):
            resolve_secret(secret_file=str(empty))
        with pytest.raises(SweepError, match="cannot read"):
            resolve_secret(secret_file=str(tmp_path / "missing"))

    def test_proofs_are_role_and_nonce_separated(self):
        a, b = _fresh_nonce(), _fresh_nonce()
        worker = _auth_proof(b"k", "worker", a, b)
        assert worker == _auth_proof(b"k", "worker", a, b)  # deterministic
        assert worker != _auth_proof(b"k", "parent", a, b)  # role-bound
        assert worker != _auth_proof(b"k", "worker", b, a)  # order-bound
        assert worker != _auth_proof(b"other", "worker", a, b)  # key-bound
        assert worker != _auth_proof(None, "worker", a, b)  # secret != open

    def _welcome(self, parent_nonce, secret=b"k", **overrides):
        worker_nonce = _fresh_nonce()
        reply = {
            "version": PROTOCOL_VERSION,
            "slots": 3,
            "nonce": worker_nonce,
            "proof": _auth_proof(secret, "worker", parent_nonce, worker_nonce),
        }
        reply.update(overrides)
        return MSG_WELCOME, _json_payload(reply)

    def test_a_proven_welcome_yields_slots_and_the_auth_frame(self):
        nonce = _fresh_nonce()
        slots, auth = answer_welcome(*self._welcome(nonce), b"k", nonce)
        assert slots == 3
        mtype, payload = parse_frame(auth)
        assert mtype == MSG_AUTH and len(_parse_json(payload, "AUTH")["proof"]) == 64

    def test_refusals_are_typed_not_worded(self):
        """What decides that a host is written off is the exception's
        type.  BYE is final whatever it says; a reply that merely
        *mentions* authentication is an ordinary protocol error, and the
        host stays on the redial list."""
        nonce = _fresh_nonce()
        bye = MSG_BYE, _json_payload({"error": "closed for maintenance"})
        with pytest.raises(Refused, match="maintenance"):
            answer_welcome(*bye, b"k", nonce)
        with pytest.raises(Refused, match="authentication"):
            answer_welcome(*self._welcome(nonce, secret=b"other"), b"k", nonce)
        with pytest.raises(Refused, match="version mismatch"):
            answer_welcome(*self._welcome(nonce, version=1), b"k", nonce)
        with pytest.raises(Refused, match="nonce"):
            answer_welcome(*self._welcome(nonce, nonce=None), b"k", nonce)
        for not_a_refusal in (
            (MSG_ROW, _json_payload({"error": "authentication version mismatch"})),
            (MSG_WELCOME, b"authentication"),
            self._welcome(nonce, slots="authentication"),
            self._welcome(nonce, slots=float("inf")),
        ):
            with pytest.raises(ProtocolError) as failure:
                answer_welcome(*not_a_refusal, b"k", nonce)
            assert not isinstance(failure.value, Refused)


# ---------------------------------------------------------------------------
# Program shipping: a cell carries its script
# ---------------------------------------------------------------------------


def _scripted_task():
    from repro.scripts import canonical_node_table, tcp_congestion_script
    from repro.sweep import run_script_task

    spec = SweepSpec("ship", base_seed=3)
    spec.add(
        "cell",
        run_script_task,
        script=tcp_congestion_script(canonical_node_table(2)),
        workload={"kind": "tcp_bulk", "bytes": 8192},
    )
    return spec.tasks()[0]


class TestProgramShipping:
    def test_export_carries_the_script_text(self):
        task = _scripted_task()
        payload, fingerprint = export_task(task)
        body = json.loads(payload)
        assert body["params"]["script"] == task.params["script"]
        assert body["fn"] == "repro.sweep.campaigns:run_script_task"
        assert fingerprint == hashlib.sha256(payload).hexdigest() == task_fingerprint(task)

    def test_resolve_restores_the_program(self):
        task = _scripted_task()
        resolved = decode_task(parse_frame(task_frame(export_task(task)[0]))[1])
        assert resolved.params == task.params
        # A resolved task actually executes, to the serial row.
        row = execute_task(resolved)
        assert row.ok, row.error
        assert row.canonical() == execute_task(task).canonical()

    def test_plain_tasks_ship_no_programs(self):
        spec = SweepSpec("plain", base_seed=1).add("a", ok_task, knob=3)
        payload, _fingerprint = export_task(spec.tasks()[0])
        assert json.loads(payload)["params"] == {"knob": 3}

    def test_a_compiled_program_does_not_encode(self):
        """Only a hand-built task can hold one (``SweepSpec.tasks`` refuses
        it first); the error names the cell and the param's path."""
        task = _scripted_task()
        task.params["program"] = Testbed.compile_cached(task.params["script"])
        with pytest.raises(SweepError, match=r"task 0 \('cell'\).*params\.program: .*CompiledProgram"):
            export_task(task)

    def test_a_script_that_does_not_compile_here_is_a_failed_row(self):
        """A TASK decodes whatever its script says; compiling is the cell's
        work, so a script this slot cannot compile is the cell's FAILED
        row, not a lost slot."""
        body = {
            "fn": "repro.sweep.campaigns:run_script_task", "index": 0, "name": "x",
            "params": {"script": "SCENARIO ("}, "seed": 0,
        }
        row = execute_task(decode_task(_json_payload(body)))
        assert row.status == row.FAILED and row.error.startswith("FslParseError")

    @pytest.mark.parametrize(
        "fn",
        [
            "os:system",
            "os.path:join",
            "posix:system",
            "subprocess:run",
            "builtins:eval",
            "nt:system",
            "tests.sweep.test_remote:os.system",  # laundered through a module
            "repro.sweep.spec:importlib.import_module",
            "tests.sweep._remote_tasks:ok_task.__call__",
            "repro.sweep.spec:SweepSpec",  # a class, not a function
            "tests.sweep._remote_tasks:no_such_task",
            "no.such.module:task",
            "tests.sweep._remote_tasks",
        ],
    )
    def test_only_task_functions_resolve(self, fn):
        """The blocklist's guarantee without a pickle: nothing is imported
        from os/subprocess/posix/nt/builtins, and a name must resolve to a
        plain function going by exactly that module and qualname."""
        body = {"fn": fn, "index": 0, "name": "x", "params": {}, "seed": 0}
        with pytest.raises(ProtocolError, match="TASK 0"):
            decode_task(_json_payload(body))


# ---------------------------------------------------------------------------
# A scripted fake worker: speaks the protocol inline, counts frames
# ---------------------------------------------------------------------------


class ScriptedWorker(threading.Thread):
    """Protocol-level worker test double.

    Serves one connection with ``slots`` pull slots, executing tasks
    inline (no process pool) and counting every frame type it receives.
    """

    def __init__(self, slots=1):
        super().__init__(daemon=True)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.host, self.port = self.listener.getsockname()[:2]
        self.slots = slots
        self.frame_counts = {}

    def run(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        try:
            mtype, payload = read_frame(conn)
            assert mtype == MSG_HELLO
            hello = _parse_json(payload, "HELLO")
            assert hello["version"] == PROTOCOL_VERSION
            worker_nonce = _fresh_nonce()
            conn.sendall(
                encode_frame(
                    MSG_WELCOME,
                    _json_payload(
                        {
                            "version": PROTOCOL_VERSION,
                            "slots": self.slots,
                            "nonce": worker_nonce,
                            "proof": _auth_proof(
                                None, "worker", hello["nonce"], worker_nonce
                            ),
                        }
                    ),
                )
            )
            mtype, payload = read_frame(conn)
            assert mtype == MSG_AUTH
            assert _parse_json(payload, "AUTH")["proof"] == _auth_proof(
                None, "parent", worker_nonce, hello["nonce"]
            )
            for _ in range(self.slots):
                conn.sendall(encode_frame(MSG_GET, b"{}"))
            while True:
                mtype, payload = read_frame(conn)
                self.frame_counts[mtype] = self.frame_counts.get(mtype, 0) + 1
                if mtype == MSG_TASK:
                    row = execute_task(decode_task(payload))
                    conn.sendall(
                        encode_frame(MSG_ROW, _json_payload(row.to_record()))
                    )
                    conn.sendall(encode_frame(MSG_GET, b"{}"))
                elif mtype == MSG_BYE:
                    break
        except (ProtocolError, OSError, ConnectionError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            self.listener.close()

    def stop(self):
        try:
            self.listener.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Differential: serial vs pool vs tcp, byte-identical
# ---------------------------------------------------------------------------


class TestLoopbackDifferential:
    def test_three_backend_differential_is_byte_identical(self, fleet):
        """The acceptance campaign (fig5/fig6 x seeds x loss) merges to
        the same bytes on serial, parallel slot processes, and a 2-host tcp
        fleet."""
        from tests.sweep.test_runner import mixed_campaign

        spec = mixed_campaign()
        assert len(spec.tasks()) >= 12
        serial = run_sweep(spec, backend="serial")
        pool = run_sweep(spec, backend="parallel", workers=2)
        tcp = run_sweep(spec, backend="tcp", hosts=fleet)
        assert serial.passed, serial.render()
        assert serial.canonical_bytes() == pool.canonical_bytes()
        assert serial.canonical_bytes() == tcp.canonical_bytes()
        assert tcp.backend == "tcp"
        assert tcp.workers == 4  # the fleet's advertised slot total

    def test_coerced_params_reach_every_backend_alike(self, fleet):
        """A tuple, a tuple inside a dict and an enum: every backend's
        cell sees lists, the enum's value and sorted keys — on serial
        too, which used to hand over the objects themselves."""
        from repro.core.tables import Direction

        spec = SweepSpec("coerced", base_seed=2).add(
            "cell", params_repr_task, rates=(1, 2.5), knobs={"z": 0, "pair": ("a", 3)},
            mode=Direction.RECV,
        )
        outcomes = [
            run_sweep(spec, backend="serial"),
            run_sweep(spec, backend="parallel", workers=2),
            run_sweep(spec, backend="tcp", hosts=fleet),
        ]
        assert len({outcome.canonical_bytes() for outcome in outcomes}) == 1
        assert outcomes[0].rows[0].payload["params"] == (
            "{'knobs': {'pair': ['a', 3], 'z': 0}, 'mode': 'RECV', 'rates': [1, 2.5]}"
        )

    def test_hosts_accepts_comma_string(self, fleet):
        spec = SweepSpec("str-hosts", base_seed=2)
        for i in range(4):
            spec.add(f"t{i}", ok_task)
        hosts = ",".join(f"{host}:{port}" for host, port in fleet)
        outcome = run_sweep(spec, backend="tcp", hosts=hosts)
        assert outcome.passed
        assert len(outcome.rows) == 4

    def test_each_cell_ships_in_one_task_frame(self):
        """Six cells sharing one script ship six TASK frames, each carrying
        the script, and nothing else but the closing BYE."""
        from repro.scripts import canonical_node_table, tcp_congestion_script
        from repro.sweep import run_script_task

        worker = ScriptedWorker(slots=2)
        worker.start()
        spec = SweepSpec("push-once", base_seed=5)
        spec.add_grid(
            run_script_task,
            axes={"seed": [0, 1, 2, 3, 4, 5]},
            script=tcp_congestion_script(canonical_node_table(2)),
            workload={"kind": "tcp_bulk", "bytes": 8192},
        )
        outcome = run_sweep(
            spec, backend="tcp", hosts=[(worker.host, worker.port)]
        )
        worker.join(timeout=30)
        assert outcome.passed, outcome.render()
        assert worker.frame_counts == {MSG_TASK: 6, MSG_BYE: 1}

    def test_journal_and_cache_compose_with_tcp(self, fleet, tmp_path):
        """PR-6 durability plumbing is backend-agnostic: a journaled tcp
        campaign replays byte-identically, and a warm cache serves it
        without touching the fleet."""
        spec = SweepSpec("compose", base_seed=4)
        for i in range(5):
            spec.add(f"t{i}", ok_task)
        journal = str(tmp_path / "tcp.jsonl")
        cache = str(tmp_path / "cache")
        first = run_sweep(
            spec, backend="tcp", hosts=fleet, journal=journal, cache_dir=cache
        )
        assert first.passed
        resumed = run_sweep(
            spec,
            backend="tcp",
            hosts=fleet,
            journal=journal,
            resume=True,
        )
        assert resumed.resumed == 5  # nothing re-executed
        assert first.canonical_bytes() == resumed.canonical_bytes()
        # Cache round: serial backend serves from the same cache entries
        # the tcp campaign wrote (content-addressed, backend-free).
        cached = run_sweep(spec, backend="serial", cache_dir=cache)
        assert cached.cached_rows == 5
        assert cached.canonical_bytes() == first.canonical_bytes()

    @pytest.mark.parametrize("backend", ["serial", "parallel", "tcp"])
    def test_cold_warm_resumed_and_resumed_warm_bytes_agree(self, fleet, tmp_path, backend):
        """One store on every backend: a journaled run fills the cache
        through its link, a warm run serves it, and a journal cut after
        two rows resumes — with and without the cache — to the bytes of
        the uninterrupted cold run."""
        spec = SweepSpec("one-store", base_seed=4)
        for i in range(5):
            spec.add(f"t{i}", ok_task)
        dial = {"hosts": fleet} if backend == "tcp" else {}
        cache, journal = str(tmp_path / "cache"), tmp_path / "cold.jsonl"

        def run(**durable):
            return run_sweep(spec, backend=backend, **dial, **durable)

        cold = run()
        filled = run(journal=str(journal), cache_dir=cache)
        warm = run(cache_dir=cache)
        header_and_two_rows = journal.read_text().splitlines(keepends=True)[:3]
        cut = [tmp_path / "cut.jsonl", tmp_path / "cut-warm.jsonl"]
        for path in cut:
            path.write_text("".join(header_and_two_rows))
        resumed = run(journal=str(cut[0]), resume=True)
        resumed_warm = run(journal=str(cut[1]), resume=True, cache_dir=cache)
        assert (filled.cached_rows, warm.cached_rows) == (0, 5)
        assert (resumed.resumed, resumed.cached_rows) == (2, 0)
        assert (resumed_warm.resumed, resumed_warm.cached_rows) == (2, 3)
        outcomes = [filled, warm, resumed, resumed_warm]
        assert [o.canonical_bytes() for o in outcomes] == [cold.canonical_bytes()] * 4


# ---------------------------------------------------------------------------
# Fleet configuration
# ---------------------------------------------------------------------------


class TestFleetConfig:
    def test_no_fleet_anywhere_is_sweep_error(self, monkeypatch):
        monkeypatch.delenv(HOSTS_ENV, raising=False)
        spec = SweepSpec("nofleet", base_seed=1).add("a", ok_task)
        with pytest.raises(SweepError, match="worker fleet"):
            run_sweep(spec, backend="tcp")

    def test_hosts_env_supplies_the_fleet(self, fleet, monkeypatch):
        monkeypatch.setenv(
            HOSTS_ENV, ",".join(f"{h}:{p}" for h, p in fleet)
        )
        spec = SweepSpec("envfleet", base_seed=1).add("a", ok_task)
        outcome = run_sweep(spec, backend="tcp")
        assert outcome.passed

    def test_hosts_argument_beats_env(self, fleet, monkeypatch):
        # The env names a dead port; an explicit argument must win
        # without ever dialling the env value.
        monkeypatch.setenv(HOSTS_ENV, "127.0.0.1:9")
        spec = SweepSpec("argfleet", base_seed=1).add("a", ok_task)
        started = time.monotonic()
        outcome = run_sweep(spec, backend="tcp", hosts=fleet)
        assert outcome.passed
        assert time.monotonic() - started < 5.0

    def test_unreachable_fleet_is_sweep_error(self):
        """Nobody ever answers: after the ten-second window (virtual) the
        campaign fails, saying it never reached anyone and why."""
        spec = SweepSpec("dead", base_seed=1).add("a", ok_task)
        sim = FleetSim(spec, [ModelWorker("127.0.0.1:9", up=False)])
        with pytest.raises(SweepError, match="could not reach any worker") as failure:
            sim.run()
        assert "127.0.0.1:9: [Errno 111] Connection refused" in str(failure.value)
        assert 10.0 <= sim.now < 10.5

    def test_a_parallel_fleet_that_never_starts_names_no_backend(self, monkeypatch):
        """Real dials.  The scheduler is shared by ``parallel`` and
        ``tcp``, so its error names the fleet and why, not a backend the
        user did not choose."""

        def no_fork(*args):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(remote, "_fork_slot", no_fork)
        monkeypatch.setattr(fleet_policy, "FLEET_WINDOW_S", 0.5)
        spec = SweepSpec("nofork", base_seed=1).add("a", ok_task)
        with pytest.raises(SweepError) as failure:
            run_sweep(spec, backend="parallel", workers=2)
        message = str(failure.value)
        assert message.startswith(
            "the fleet could not reach any worker: slot-0: cannot start slot process: "
            "[Errno 11] Resource temporarily unavailable"
        )
        assert "tcp" not in message

    def test_invalid_workers_still_validated(self, monkeypatch):
        spec = SweepSpec("w", base_seed=1).add("a", ok_task)
        with pytest.raises(SweepError, match="workers"):
            run_sweep(spec, backend="tcp", workers=0, hosts="127.0.0.1:9")


# ---------------------------------------------------------------------------
# The failure model
# ---------------------------------------------------------------------------


class TestSlotProcess:
    """Real processes: what a slot does for itself, seen in its row."""

    def test_a_ctrl_c_reaching_a_slot_costs_its_cell_nothing(self):
        """A terminal Ctrl-C reaches every process in the group.  The
        owner decides what it means, so a slot ignores SIGINT and its cell
        lands OK on the first attempt; a slot that took it would die, and
        the cell with it, on every attempt."""
        spec = SweepSpec("ctrl-c", base_seed=1).add("interrupted", sigint_self_task)
        outcome = run_sweep(spec, backend="parallel", workers=1)
        assert [(row.status, row.attempts) for row in outcome.rows] == [("OK", 1)]

    def test_a_slot_heartbeats_while_its_cell_runs(self, monkeypatch):
        """A cell that runs longer than the heartbeat timeout keeps its
        slot alive, because the slot beats from a thread of its own; a
        silent slot would be declared lost mid-cell, on every attempt."""
        monkeypatch.setattr(fleet_policy, "HEARTBEAT_TIMEOUT_S", 0.5)
        monkeypatch.setattr(remote, "HEARTBEAT_INTERVAL_S", 0.1)
        spec = SweepSpec("long-cell", base_seed=1).add("long", sleepy_task, sleep_s=1.0)
        outcome = run_sweep(spec, backend="parallel", workers=1)
        assert [(row.status, row.attempts) for row in outcome.rows] == [("OK", 1)]


class TestWorkerLoss:
    def test_slot_death_is_reported_requeued_and_bounded(self, fleet):
        """A cell that hard-kills its slot process costs the worker that
        slot only: the worker reports it (ERROR frame), the parent
        re-queues within the retry budget, and a cell that keeps killing
        becomes a deterministic FAILED row while healthy cells complete."""
        spec = SweepSpec("slotdeath", base_seed=6)
        spec.add("ok0", ok_task)
        spec.add("killer", slot_killer_task)
        spec.add("ok1", ok_task)
        outcome = run_sweep(spec, backend="tcp", hosts=fleet, retries=1)
        by_name = {row.name: row for row in outcome.rows}
        assert by_name["ok0"].ok and by_name["ok1"].ok
        killer = by_name["killer"]
        assert killer.status == "FAILED"
        assert killer.error == "worker died: connection lost"
        assert killer.attempts == 2  # initial + one retry, both lost
        assert len(outcome.rows) == 3

    def test_a_sigkilled_server_with_a_live_slot_is_noticed_at_once(self):
        """Real processes.  The cell SIGKILLs the *server* it runs under
        and its slot sleeps on.  A forked slot used to hold copies of the
        parent connection and the listener, so the parent saw no EOF
        (only "missed heartbeats", ten seconds later) and the port could
        not be rebound while the orphan lived."""
        workers = [
            ChaosWorker(slots=1, extra_pythonpath=REPO_ROOT) for _ in range(2)
        ]
        try:
            spec = SweepSpec("orphan", base_seed=8).add("assassin", server_killer_task)
            for i in range(3):
                spec.add(f"t{i}", ok_task)
            started = time.monotonic()
            outcome = run_sweep(
                spec,
                backend="tcp",
                hosts=",".join(w.address for w in workers),
                retries=0,
            )
            assert time.monotonic() - started < 3.0
            assassin = outcome.rows[0]
            assert assassin.status == "FAILED" and assassin.attempts == 1
            assert "connection closed" in assassin.error_detail
            assert [row.ok for row in outcome.rows[1:]] == [True] * 3
            # A dying process closes its sockets before it can be reaped.
            deadline = time.monotonic() + 5.0
            while all(w.alive for w in workers) and time.monotonic() < deadline:
                time.sleep(0.01)
            (victim,) = [w for w in workers if not w.alive]
            victim.restart()  # raises unless the worker prints LISTENING
            assert victim.alive
        finally:
            for worker in workers:
                worker.close()

    def test_server_death_requeues_to_surviving_workers(self):
        """A worker server dies mid-campaign and stays dead: its
        in-flight cell re-queues onto the survivor and the merged rows
        are byte-identical to serial."""
        spec = SweepSpec("srvdeath", base_seed=8)
        for i in range(6):
            spec.add(f"t{i}", ok_task)
        a, b = ModelWorker("a:1", service_s=0.2), ModelWorker("b:1", service_s=0.2)
        sim = FleetSim(spec, [a, b], retries=2)
        sim.on_task(lambda worker: worker.kill(), worker="a:1", nth=2)
        tcp = sim.run()
        assert tcp.passed, tcp.render()
        assert tcp.canonical_bytes() == serial_bytes(spec)
        assert tcp.fleet["scheduler"]["requeues"] == 1
        assert tcp.fleet["workers"]["a:1"]["fleet.rows"] == 1
        # The orphaned cell (2) goes back to the head of the queue: it is
        # dispatched as soon as a slot frees up, ahead of 4 and 5.
        order = sorted(
            (when, index) for index, sends in sim.task_sends().items() for when, _ in sends
        )
        assert [index for _, index in order] == [0, 1, 2, 3, 2, 4, 5]

    def test_retry_budget_exhaustion_yields_deterministic_failed_row(self):
        """A cell that kills every server it lands on exhausts the retry
        budget (retries=1 -> two losses) and becomes a FAILED row; a
        third worker survives to finish the healthy cells."""
        spec = SweepSpec("exhaust", base_seed=9)
        spec.add("assassin", ok_task)
        for i in range(3):
            spec.add(f"t{i}", ok_task)
        workers = [ModelWorker(f"w{n}:1") for n in range(3)]
        sim = FleetSim(spec, workers, retries=1)
        sim.on_task(lambda worker: worker.kill(), index=0)
        outcome = sim.run()
        by_name = {row.name: row for row in outcome.rows}
        assassin = by_name["assassin"]
        assert assassin.status == "FAILED"
        assert assassin.error == "worker died: connection lost"
        assert assassin.attempts == 2
        assert assassin.error_detail.startswith(
            "task 0 ('assassin') lost 2 worker(s); last: worker w"
        )
        assert assassin.error_detail.endswith(":1 lost: connection closed")
        healthy = run_sweep(spec, backend="serial").rows[1:]
        assert [by_name[f"t{i}"].canonical() for i in range(3)] == [
            row.canonical() for row in healthy
        ]
        assert sorted(w.up for w in workers) == [False, False, True]

    def test_whole_fleet_loss_is_an_honest_sweep_error(self):
        """Every worker dead with cells still pending and nobody rejoining
        within the window: SweepError, not a silent partial outcome."""
        spec = SweepSpec("allgone", base_seed=10)
        spec.add("assassin", ok_task)
        spec.add("never", ok_task)
        sim = FleetSim(spec, [ModelWorker("a:1")], retries=5)
        sim.on_task(lambda worker: worker.kill(), index=0)
        with pytest.raises(SweepError, match="lost every worker") as failure:
            sim.run()
        assert "2 task(s) unfinished and none rejoined within 10s" in str(failure.value)
        assert 10.0 <= sim.now < 10.5
        assert sim.landed == []

    def test_heartbeat_silence_requeues_held_cells(self):
        """A worker that accepts a cell and goes silent misses heartbeats;
        the parent declares it lost and the cell completes elsewhere."""
        spec = SweepSpec("silence", base_seed=12)
        for i in range(4):
            spec.add(f"t{i}", ok_task)
        silent, live = ModelWorker("silent:1"), ModelWorker("live:1", slots=2)
        sim = FleetSim(spec, [silent, live], retries=1)
        sim.on_task(lambda worker: worker.freeze(3600.0), worker="silent:1")
        outcome = sim.run()
        assert outcome.passed, outcome.render()
        assert outcome.canonical_bytes() == serial_bytes(spec)
        assert 10.0 < sim.now < 10.5  # lost at the timeout, finished at once
        assert outcome.fleet["workers"]["silent:1"]["fleet.failures_loss"] == 1


# ---------------------------------------------------------------------------
# The worker's session: a frame relay that owns its slot processes
# ---------------------------------------------------------------------------


class TestWorkerSession:
    """Real processes: what is under test is who is alive afterwards."""

    @pytest.fixture
    def server(self):
        server = WorkerServer(slots=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.stop()

    @staticmethod
    def _dial(server):
        """A raw parent, past the handshake."""
        sock = socket.create_connection((server.host, server.port), timeout=10)
        nonce = _fresh_nonce()
        sock.sendall(hello_frame(nonce, None, 0, None))
        _slots, auth = answer_welcome(*read_frame(sock), None, nonce)
        sock.sendall(auth)
        return sock

    @staticmethod
    def _hang_up(sock):
        """Forked slots hold copies of this end: only a shutdown is an EOF
        for the other side, which then reaps them even if an assert failed."""
        with contextlib.suppress(OSError):  # the other side hung up first
            sock.shutdown(socket.SHUT_RDWR)
        sock.close()

    @staticmethod
    def _frames(sock, rows=0, gets=0):
        """Read until that many ROWs and GETs have arrived; the frame
        types in arrival order, heartbeats aside."""
        seen = []
        while seen.count(MSG_ROW) < rows or seen.count(MSG_GET) < gets:
            mtype, _payload = read_frame(sock)
            if mtype != MSG_HEARTBEAT:
                seen.append(mtype)
        return seen

    @staticmethod
    def _child_pids():
        return {child.pid for child in multiprocessing.active_children()}

    @staticmethod
    def _send_cells(sock, pids, count, sleep_s):
        spec = SweepSpec("session", base_seed=3)
        for i in range(count):
            spec.add(f"t{i}", _pid_task, pids=str(pids), sleep_s=sleep_s)
        for task in spec.tasks():
            sock.sendall(task_frame(export_task(task)[0]))

    @staticmethod
    def _await_campaigns(server, served):
        """A session's clean-up is over when the worker has counted it."""
        deadline = time.monotonic() + 10.0  # nobody waits out a 30 s cell
        while server.campaigns_served < served:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def _assert_no_slot_left_and_still_serving(self, server, pids, served=0):
        """Every slot the ended session forked is gone, busy or not, and
        the next campaign is none the worse for it."""
        self._await_campaigns(server, served)
        assert multiprocessing.active_children() == []
        assert all(_gone(pid) for pid in _noted_pids(pids))
        spec = SweepSpec("next", base_seed=5)
        for i in range(5):
            spec.add(f"n{i}", ok_task)
        again = run_sweep(spec, backend="tcp", hosts=[(server.host, server.port)])
        assert again.canonical_bytes() == serial_bytes(spec)
        self._await_campaigns(server, served + 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("ending", ["fail-fast", "interrupted", "socket-close"])
    def test_no_slot_outlives_its_session(self, server, ending, tmp_path):
        hosts = [(server.host, server.port)]

        def both_slots_are_busy():
            while len(os.listdir(tmp_path)) < 2:
                time.sleep(0.01)

        if ending == "socket-close":
            sock = self._dial(server)
            assert self._frames(sock, gets=2) == [MSG_GET, MSG_GET]
            self._send_cells(sock, tmp_path, 2, sleep_s=30.0)
            both_slots_are_busy()
            # Not close() alone: this worker lives in the test's process,
            # so its forked slots hold copies of the test's end too.
            sock.shutdown(socket.SHUT_RDWR)
            sock.close()
        else:
            spec = SweepSpec("abandoned", base_seed=3)
            for i in range(6):
                spec.add(
                    f"t{i}",
                    _pid_task,
                    pids=str(tmp_path),
                    sleep_s=30.0 if ending == "interrupted" else 0.1,
                    passed=ending == "interrupted",
                )
            if ending == "interrupted":

                def interrupt():
                    both_slots_are_busy()
                    os.kill(os.getpid(), signal.SIGINT)

                threading.Thread(target=interrupt).start()
            outcome = run_sweep(
                spec, backend="tcp", hosts=hosts, fail_fast=ending == "fail-fast"
            )
            assert outcome.aborted and len(outcome.rows) < 6
            assert outcome.interrupted == (ending == "interrupted")
        self._assert_no_slot_left_and_still_serving(server, tmp_path, served=1)
        assert len(set(_noted_pids(tmp_path))) == 2

    def test_a_task_nobody_asked_for_ends_the_session_not_the_worker(
        self, server, tmp_path
    ):
        """Relay totality, parent side: the pull protocol is the only
        scheduler, so a TASK sent while every slot is busy has nowhere to
        go.  That session ends, its slots with it."""
        sock = self._dial(server)
        try:
            assert self._frames(sock, gets=2) == [MSG_GET, MSG_GET]
            self._send_cells(sock, tmp_path, 3, sleep_s=30.0)  # two slots
            with pytest.raises(ConnectionLost):
                self._frames(sock, rows=1)
        finally:
            self._hang_up(sock)
        assert server.campaigns_served == 0  # a broken session is no campaign
        self._assert_no_slot_left_and_still_serving(server, tmp_path)

    def test_garbage_from_a_slot_ends_the_session_not_the_worker(
        self, server, tmp_path, monkeypatch
    ):
        """Relay totality, slot side: the relay reads its slots through
        the one frame parser, and what fails it ends that session only."""

        def babbling_slot(conn, inherited_fds, task_timeout):
            conn.sendall(b"these bytes are not a VWJP frame")
            time.sleep(30)

        with monkeypatch.context() as patched:
            patched.setattr(remote, "_slot_main", babbling_slot)
            sock = self._dial(server)
            try:
                with pytest.raises(ConnectionLost):
                    self._frames(sock, rows=1)
            finally:
                self._hang_up(sock)
        self._assert_no_slot_left_and_still_serving(server, tmp_path)

    def test_slots_forked_by_two_threads_each_die_to_their_own_eof(self):
        """Two ``WorkerServer`` s in one process fork from two threads.  A
        slot forked while another's socketpair end was still open here used
        to hold that end, so the other slot's death never reached its owner
        as EOF — a campaign waited forever for the cell it held."""
        forked = [[], []]

        def fork_ten(into):
            for _ in range(10):
                into.append(remote._fork_slot(None))

        threads = [threading.Thread(target=fork_ten, args=(into,)) for into in forked]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        slots = forked[0] + forked[1]
        try:
            for sock, _process in slots:
                sock.settimeout(10)
                assert read_frame(sock) == (MSG_GET, b"{}")
            for sock, process in slots[::3]:
                remote._kill_slot(process)
                with pytest.raises(ConnectionLost, match="closed"):
                    while True:  # a heartbeat may come first
                        read_frame(sock)
        finally:
            for sock, process in slots:
                self._hang_up(sock)
                remote._kill_slot(process)

    def test_an_idle_slot_killed_from_outside_costs_nobody(self, server, tmp_path):
        """The parent already holds the dead slot's GET: its replacement's
        first GET is that same request, not a third slot."""
        sock = self._dial(server)
        try:
            assert self._frames(sock, gets=2) == [MSG_GET, MSG_GET]
            before = self._child_pids()
            os.kill(min(before), signal.SIGKILL)
            while len(self._child_pids() - before) < 1:  # forked again
                time.sleep(0.01)
            self._send_cells(sock, tmp_path, 2, sleep_s=0.3)
            # The replacement asked long before either cell was over.
            assert self._frames(sock, rows=1) == [MSG_ROW]
            assert sorted(self._frames(sock, rows=1, gets=2)) == [
                MSG_GET,
                MSG_GET,
                MSG_ROW,
            ]
            sock.sendall(encode_frame(MSG_BYE, b"{}"))
        finally:
            self._hang_up(sock)
        self._assert_no_slot_left_and_still_serving(server, tmp_path, served=1)
        assert len(set(_noted_pids(tmp_path))) == 2

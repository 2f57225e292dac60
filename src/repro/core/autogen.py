"""Script generation from protocol specifications (the paper's §8 goal).

The paper closes with: *"as a long term goal ... it will be interesting to
investigate the possibility of generating the fault injection and packet
trace analysis scripts directly from the protocol specification.  This
will truly make the testing process completely automated."*

This module implements that extension for a useful class of protocols:
those describable as a set of **message types** (named packet definitions
with endpoints) plus **liveness expectations** (after N messages of type A
have been observed, messages of type B must keep flowing).  From such a
:class:`ProtocolSpec` it emits a family of FSL scenarios:

* ``baseline``       — no fault; the liveness expectations alone must hold;
* ``drop_<m>``       — a burst of drops of each droppable message type,
                       with the spec's recovery expectation appended;
* ``delay_<m>``      — each message type delayed past its urgency bound;
* ``dup_<m>``        — each message type duplicated (idempotency check);
* ``crash_<node>``   — each expendable node crashed mid-run, with the
                       survivors' liveness expectations kept in force.

The generated scripts are plain FSL text: they can be reviewed, version-
controlled, edited, and run through the unmodified front-end — automation
produces the same artifact a human test author would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError

#: Liveness messages a crash scenario lets through before it FAILs the node.
CRASH_AFTER_MESSAGES = 5


@dataclass(frozen=True)
class MessageFlow:
    """One message type of the protocol under test.

    *filter_fsl* is the packet definition body (the tuples after the
    name); *src*/*dst* name the observation endpoints; *min_rate_window*
    expresses liveness: within any window of that many observed
    ``clock_message`` events, at least one message of this type must be
    seen (0 disables the check).
    """

    name: str
    filter_fsl: str
    src: str
    dst: str
    droppable: bool = True
    #: drop this many consecutive instances in the drop scenario.
    drop_burst: int = 1
    #: DELAY scenarios hold the message this long (ms).
    delay_ms: int = 50


@dataclass
class ProtocolSpec:
    """A declarative description sufficient to generate test scenarios."""

    name: str
    messages: List[MessageFlow]
    #: nodes that may be crashed without invalidating the test (i.e. the
    #: protocol promises to survive their failure).
    expendable_nodes: List[str] = field(default_factory=list)
    #: the message type whose continued arrival constitutes liveness,
    #: checked after every injected fault.
    liveness_message: Optional[str] = None
    #: how many liveness messages after the fault constitute recovery.
    recovery_count: int = 3
    #: scenario inactivity budget.
    timeout: str = "2s"

    def message(self, name: str) -> MessageFlow:
        for message in self.messages:
            if message.name == name:
                return message
        raise ScenarioError(f"spec {self.name!r} has no message {name!r}")

    def validate(self) -> None:
        names = [m.name for m in self.messages]
        if len(set(names)) != len(names):
            raise ScenarioError(f"spec {self.name!r} has duplicate message names")
        if not self.messages:
            raise ScenarioError(f"spec {self.name!r} declares no messages")
        if self.liveness_message is not None:
            self.message(self.liveness_message)


class ScriptGenerator:
    """Emits FSL scenario scripts from a :class:`ProtocolSpec`."""

    def __init__(self, spec: ProtocolSpec, node_table_fsl: str) -> None:
        spec.validate()
        self.spec = spec
        self.node_table_fsl = node_table_fsl.strip()

    # -- shared fragments ---------------------------------------------------

    def _filter_table(self) -> str:
        lines = ["FILTER_TABLE"]
        for message in self.spec.messages:
            lines.append(f"  {message.name}: {message.filter_fsl}")
        lines.append("END")
        return "\n".join(lines)

    def _liveness(self) -> Optional[MessageFlow]:
        if self.spec.liveness_message is None:
            return None
        return self.spec.message(self.spec.liveness_message)

    def _recovery_rules(self, armed_counter: str) -> List[str]:
        """After *armed_counter* fires, expect recovery_count liveness

        messages, then STOP; the scenario's declared timeout turns a
        stalled protocol into a failure automatically.
        """
        live = self._liveness()
        if live is None:
            return []
        lines = [
            f"  Recovered: ({live.name}, {live.src}, {live.dst}, RECV)",
            f"  (({armed_counter} = 1)) >> ENABLE_CNTR( Recovered );",
            f"  ((Recovered = {self.spec.recovery_count})) >> STOP;",
        ]
        return lines

    def _header(self, scenario: str) -> List[str]:
        return [
            self._filter_table(),
            self.node_table_fsl,
            f"SCENARIO {scenario} {self.spec.timeout}",
        ]

    # -- scenario emitters ----------------------------------------------------

    def baseline(self) -> str:
        """No fault: liveness alone, a calibration/sanity scenario."""
        live = self._liveness()
        if live is None:
            raise ScenarioError("baseline scenario needs a liveness message")
        lines = self._header(f"{self.spec.name}_baseline")
        lines += [
            f"  Live: ({live.name}, {live.src}, {live.dst}, RECV)",
            f"  ((Live = {self.spec.recovery_count})) >> STOP;",
            "END",
        ]
        return "\n".join(lines)

    def drop_scenario(self, message_name: str) -> str:
        """Drop a burst of *message_name*, then expect recovery."""
        message = self.spec.message(message_name)
        if not message.droppable:
            raise ScenarioError(f"message {message_name!r} is marked undroppable")
        burst = message.drop_burst
        lines = self._header(f"{self.spec.name}_drop_{message_name}")
        lines += [
            f"  Seen: ({message.name}, {message.src}, {message.dst}, RECV)",
            f"  Armed: ({message.src})",
            f"  ((Seen >= 1) && (Seen <= {burst})) >> "
            f"DROP {message.name}, {message.src}, {message.dst}, RECV;",
            f"  ((Seen = {burst})) >> INCR_CNTR( Armed, 1 );",
        ]
        lines += self._recovery_rules("Armed")
        lines.append("END")
        return "\n".join(lines)

    def delay_scenario(self, message_name: str) -> str:
        """Hold one instance of *message_name* for its delay bound."""
        message = self.spec.message(message_name)
        lines = self._header(f"{self.spec.name}_delay_{message_name}")
        lines += [
            f"  Seen: ({message.name}, {message.src}, {message.dst}, RECV)",
            f"  Armed: ({message.src})",
            f"  ((Seen = 1)) >> "
            f"DELAY {message.name}, {message.src}, {message.dst}, RECV, "
            f"{message.delay_ms}; INCR_CNTR( Armed, 1 );",
        ]
        lines += self._recovery_rules("Armed")
        lines.append("END")
        return "\n".join(lines)

    def dup_scenario(self, message_name: str) -> str:
        """Duplicate one instance of *message_name* (idempotency)."""
        message = self.spec.message(message_name)
        lines = self._header(f"{self.spec.name}_dup_{message_name}")
        lines += [
            f"  Seen: ({message.name}, {message.src}, {message.dst}, RECV)",
            f"  Armed: ({message.src})",
            f"  ((Seen = 1)) >> "
            f"DUP {message.name}, {message.src}, {message.dst}, RECV; "
            f"INCR_CNTR( Armed, 1 );",
        ]
        lines += self._recovery_rules("Armed")
        lines.append("END")
        return "\n".join(lines)

    def crash_scenario(self, node: str) -> str:
        """Crash *node* once the liveness flow has delivered
        :data:`CRASH_AFTER_MESSAGES` messages."""
        if node not in self.spec.expendable_nodes:
            raise ScenarioError(f"node {node!r} is not marked expendable")
        live = self._liveness()
        if live is None:
            raise ScenarioError("crash scenarios need a liveness message")
        lines = self._header(f"{self.spec.name}_crash_{node}")
        lines += [
            f"  Warm: ({live.name}, {live.src}, {live.dst}, RECV)",
            f"  Armed: ({live.dst})",
            f"  ((Warm = {CRASH_AFTER_MESSAGES})) >> FAIL( {node} ); "
            f"INCR_CNTR( Armed, 1 );",
        ]
        lines += self._recovery_rules("Armed")
        lines.append("END")
        return "\n".join(lines)

    # -- the full generated suite ---------------------------------------------

    def generate_suite(self) -> Dict[str, str]:
        """Every scenario the spec supports, keyed by scenario name."""
        suite: Dict[str, str] = {}
        if self.spec.liveness_message is not None:
            suite["baseline"] = self.baseline()
        for message in self.spec.messages:
            if message.droppable:
                suite[f"drop_{message.name}"] = self.drop_scenario(message.name)
            suite[f"delay_{message.name}"] = self.delay_scenario(message.name)
            suite[f"dup_{message.name}"] = self.dup_scenario(message.name)
        for node in self.spec.expendable_nodes:
            suite[f"crash_{node}"] = self.crash_scenario(node)
        return suite


def rether_spec(ring_nodes: Sequence[str], rt_pairs: Sequence[Tuple[str, str]]) -> ProtocolSpec:
    """The Rether protocol as a :class:`ProtocolSpec` — the spec the paper

    hand-wrote Fig 6 from, here driving the generator instead.

    *ring_nodes* is the round-robin order; *rt_pairs* the (src, dst) pairs
    carrying real-time data whose continued delivery defines liveness.
    """
    if len(ring_nodes) < 3:
        raise ScenarioError("a crashworthy Rether spec needs >= 3 ring members")
    src, dst = rt_pairs[0]
    messages = [
        MessageFlow(
            name="tr_token",
            filter_fsl="(12 2 0x9900), (14 2 0x0001)",
            src=ring_nodes[0],
            dst=ring_nodes[1],
            droppable=True,
            drop_burst=1,
            delay_ms=30,
        ),
        MessageFlow(
            name="tr_token_ack",
            filter_fsl="(12 2 0x9900), (14 2 0x0010)",
            src=ring_nodes[1],
            dst=ring_nodes[0],
            droppable=True,
            drop_burst=1,
            delay_ms=30,
        ),
        MessageFlow(
            name="rt_data",
            filter_fsl="(34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)",
            src=src,
            dst=dst,
            droppable=False,  # dropping user data tests TCP, not Rether
            delay_ms=20,
        ),
    ]
    # Nodes carrying the real-time flow are not expendable in this spec.
    carriers = {src, dst}
    expendable = [node for node in ring_nodes if node not in carriers]
    return ProtocolSpec(
        name="rether",
        messages=messages,
        expendable_nodes=expendable,
        liveness_message="rt_data",
        recovery_count=5,
        timeout="2s",
    )

"""Direct tests of the per-node runtime: counters, terms, conditions,

two-phase settlement, distributed propagation hooks.
"""

import pytest

from repro.core.fsl import compile_text
from repro.core.runtime import NodeRuntime, RuntimeHooks
from repro.core.tables import Direction
from repro.errors import EngineError

HEADER = """
FILTER_TABLE
  pkt: (12 2 0x0800)
END
NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END
"""


class RecordingHooks(RuntimeHooks):
    """Hooks that record everything instead of sending frames."""

    def __init__(self) -> None:
        self.counter_updates = []
        self.term_statuses = []
        self.errors = []
        self.stops = []
        self.failed = False
        self.time = 0

    def send_counter_update(self, counter_id, value, nodes):
        self.counter_updates.append((counter_id, value, sorted(nodes)))

    def send_term_status(self, term_id, status, nodes):
        self.term_statuses.append((term_id, status, sorted(nodes)))

    def report_error(self, condition_id, action_id):
        self.errors.append(condition_id)

    def report_stop(self, condition_id):
        self.stops.append(condition_id)

    def fail_local_host(self):
        self.failed = True

    def now(self):
        return self.time


def make_runtime(body: str, node: str = "node1"):
    program = compile_text(HEADER + f"SCENARIO t {body} END")
    hooks = RecordingHooks()
    runtime = NodeRuntime(node, program, hooks)
    return runtime, hooks


class TestCountersAndEvents:
    def test_event_counter_counts_matching_packets(self):
        runtime, _ = make_runtime("A: (pkt, node2, node1, RECV)")
        runtime.start()
        for _ in range(3):
            runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("A") == 3

    def test_direction_and_endpoints_must_match(self):
        runtime, _ = make_runtime("A: (pkt, node2, node1, RECV)")
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.SEND)
        runtime.on_classified_packet("pkt", "node1", "node2", Direction.RECV)
        runtime.on_classified_packet("other", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("A") == 0

    def test_disabled_counter_ignores_events(self):
        runtime, _ = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            B: (pkt, node2, node1, RECV)
            ((A = 2)) >> ENABLE_CNTR( B );
            """
        )
        runtime.start()
        for _ in range(4):
            runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("A") == 4
        # B was enabled after the second event; the enabling event itself
        # is not counted (ENABLE takes effect on subsequent packets).
        assert runtime.counter_value("B") == 2

    def test_true_rules_fire_at_start(self):
        runtime, _ = make_runtime(
            """
            X: (node1)
            (TRUE) >> ASSIGN_CNTR( X, 42 );
            """
        )
        runtime.start()
        assert runtime.counter_value("X") == 42

    def test_all_counter_primitives(self):
        runtime, hooks = make_runtime(
            """
            X: (node1)
            Y: (node1)
            (TRUE) >> ASSIGN_CNTR( X, 10 );
                 INCR_CNTR( X, 5 );
                 DECR_CNTR( X, 3 );
                 SET_CURTIME( Y );
            """
        )
        hooks.time = 7_000_000  # 7 ms
        runtime.start()
        assert runtime.counter_value("X") == 12
        assert runtime.timestamps[runtime.program.counter_by_name("Y").counter_id] == 7_000_000

    def test_elapsed_time_in_ms(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            Y: (node1)
            (TRUE) >> SET_CURTIME( Y );
            ((A = 1)) >> ELAPSED_TIME( Y );
            """
        )
        hooks.time = 0
        runtime.start()
        hooks.time = 25_000_000  # 25 ms later
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("Y") == 25

    def test_counter_can_go_negative(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            X: (node1)
            ((A = 1)) >> DECR_CNTR( X, 3 );
            ((X < 0)) >> FLAG_ERROR;
            """
        )
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert runtime.counter_value("X") == -3
        assert hooks.errors  # the invariant rule saw the negative value


class TestEdgeSemantics:
    def test_edge_fires_once_per_transition(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            ((A >= 1)) >> FLAG_ERROR;
            """
        )
        runtime.start()
        for _ in range(5):
            runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        # Condition stays true after the first event: exactly one edge.
        assert len(hooks.errors) == 1

    def test_reset_in_body_rearms_rule(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            ((A = 1)) >> RESET_CNTR( A ); FLAG_ERROR;
            """
        )
        runtime.start()
        for _ in range(4):
            runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert len(hooks.errors) == 4

    def test_two_phase_wave_lets_siblings_see_the_value(self):
        """A rule that RESETs a counter must not hide the value from a

        sibling rule triggered by the same update (the Fig 6 STOP rule).
        """
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            ((A = 1)) >> RESET_CNTR( A );
            ((A = 1)) >> STOP;
            """
        )
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert hooks.stops  # both rules observed A = 1

    def test_cascade_chains_rules(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            X: (node1)
            Y: (node1)
            ((A = 1)) >> INCR_CNTR( X, 1 );
            ((X = 1)) >> INCR_CNTR( Y, 1 );
            ((Y = 1)) >> FLAG_ERROR;
            """
        )
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert hooks.errors

    def test_cyclic_rules_hit_cascade_cap(self):
        runtime, _ = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            X: (node1)
            ((X = 0)) >> INCR_CNTR( X, 1 );
            ((X = 1)) >> RESET_CNTR( X );
            """
        )
        with pytest.raises(EngineError):
            runtime.start()

    def test_condition_true_at_start_fires(self):
        runtime, hooks = make_runtime(
            """
            X: (node1)
            ((X = 0)) >> FLAG_ERROR;
            """
        )
        runtime.start()
        assert hooks.errors


class TestDistribution:
    def test_local_broadcast_term_pushes_status_to_consumers(self):
        runtime, hooks = make_runtime(
            "A: (pkt, node2, node1, RECV) ((A = 1)) >> FAIL( node2 );"
        )
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert (0, True, ["node2"]) in hooks.term_statuses

    def test_status_only_sent_on_change(self):
        runtime, hooks = make_runtime(
            "A: (pkt, node2, node1, RECV) ((A >= 1)) >> FAIL( node2 );"
        )
        runtime.start()
        for _ in range(5):
            runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        statuses = [s for s in hooks.term_statuses if s[1]]
        assert len(statuses) == 1  # flipped true exactly once

    def test_mirror_counter_pushes_values(self):
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            B: (pkt, node1, node2, RECV)
            ((B > A)) >> FAIL( node2 );
            """
        )
        runtime.start()
        runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        # A lives here (node1); rule home is B's home (node2): value pushed.
        assert hooks.counter_updates
        counter_id, value, nodes = hooks.counter_updates[-1]
        assert value == 1 and nodes == ["node2"]

    def test_receiving_counter_update_triggers_conditions(self):
        """A mirrored counter value arriving over the control plane must

        re-evaluate MIRROR terms and fire local actions.
        """
        runtime, hooks = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            B: (pkt, node1, node2, RECV)
            ((B > A)) >> FAIL( node1 );
            """,
            node="node1",
        )
        runtime.start()
        b_id = runtime.program.counter_by_name("B").counter_id
        assert not hooks.failed
        runtime.on_counter_update(b_id, 3)  # B (homed on node2) reaches 3
        assert hooks.failed  # 3 > 0: the local FAIL fired

    def test_receiving_term_status_fires_local_action(self):
        runtime, hooks = make_runtime(
            "A: (pkt, node1, node2, RECV) ((A = 1)) >> FAIL( node1 );",
            node="node1",
        )
        runtime.start()
        # A's home is node2; we are node1 hosting the FAIL. The status
        # arrives via the control plane:
        runtime.on_term_status(0, True)
        assert hooks.failed


class TestArmedFaults:
    def test_fault_active_while_condition_true(self):
        runtime, _ = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            ((A > 0) && (A < 2)) >> DROP pkt, node2, node1, RECV;
            """
        )
        runtime.start()
        # the packet that makes the condition true is itself dropped
        armed = runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV).faults
        assert [action.kind.name for action in armed] == ["DROP"]
        assert not runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV).faults

    def test_fault_spec_must_match_packet(self):
        runtime, _ = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            ((A >= 0)) >> DROP pkt, node2, node1, RECV;
            """
        )
        runtime.start()
        for packet in (
            ("pkt", "node1", "node2", Direction.RECV),
            ("pkt", "node2", "node1", Direction.SEND),
            ("other", "node2", "node1", Direction.RECV),
        ):
            assert not runtime.on_classified_packet(*packet).faults
        assert len(runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV).faults) == 1

    def test_stats_accounting(self):
        runtime, _ = make_runtime(
            """
            A: (pkt, node2, node1, RECV)
            X: (node1)
            ((A = 1)) >> INCR_CNTR( X, 1 ); INCR_CNTR( X, 1 );
            """
        )
        runtime.start()
        stats = runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
        assert stats.counter_touches >= 3  # A plus two X increments
        assert stats.actions_fired == 2
        assert stats.conditions_evaluated >= 1

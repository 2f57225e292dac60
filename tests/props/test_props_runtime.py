"""Property tests: the counter/term/condition runtime against a model.

A random sequence of packet events and counter actions, replayed both
through the real NodeRuntime and a direct Python model; the counter values
and the condition states must agree after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsl import compile_text
from repro.core.runtime import NodeRuntime
from repro.core.tables import Direction
from tests.conftest import counter_value
from tests.core.test_runtime import RecordingHooks

HEADER = """
FILTER_TABLE
  pkt: (12 2 0x0800)
END
NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
END
"""

#: The scenario under test: two event counters, one local, one invariant.
SCRIPT = HEADER + """
SCENARIO prop
  A: (pkt, node2, node1, RECV)
  B: (pkt, node1, node2, SEND)
  X: (node1)
  ((A = 1)) >> RESET_CNTR( A ); INCR_CNTR( X, 2 );
  ((B >= 3)) >> DECR_CNTR( X, 1 );
  ((X < 0)) >> FLAG_ERROR;
END
"""

#: Event alphabet: things the wire can do.
EVENTS = st.lists(
    st.sampled_from(["recv", "send", "other"]), min_size=0, max_size=60
)


class Model:
    """Straight-line Python re-statement of the scenario's semantics."""

    def __init__(self) -> None:
        self.a = 0
        self.b = 0
        self.x = 0
        self.b_rule_state = False
        self.errors = 0
        self.err_state = False

    def step(self, event: str) -> None:
        if event == "recv":
            self.a += 1
            # Rule 1 fires on the edge A=1 (always, since A resets).
            if self.a == 1:
                self.a = 0
                self.x += 2
        elif event == "send":
            self.b += 1
        # Rule 2 is edge-triggered on (B >= 3) which, once true, stays
        # true: it fires exactly once.
        b_now = self.b >= 3
        if b_now and not self.b_rule_state:
            self.x -= 1
        self.b_rule_state = b_now
        err_now = self.x < 0
        if err_now and not self.err_state:
            self.errors += 1
        self.err_state = err_now


class TestRuntimeMatchesModel:
    @given(events=EVENTS)
    @settings(max_examples=120, deadline=None)
    def test_lockstep(self, events):
        program = compile_text(SCRIPT)
        hooks = RecordingHooks()
        runtime = NodeRuntime("node1", program, hooks)
        runtime.start()
        model = Model()
        for event in events:
            if event == "recv":
                runtime.on_classified_packet("pkt", "node2", "node1", Direction.RECV)
            elif event == "send":
                runtime.on_classified_packet("pkt", "node1", "node2", Direction.SEND)
            else:
                runtime.on_classified_packet("pkt", "node2", "node2", Direction.RECV)
            model.step(event)
            assert counter_value(runtime, "A") == model.a
            assert counter_value(runtime, "B") == model.b
            assert counter_value(runtime, "X") == model.x
        assert len(hooks.errors) == model.errors

    @given(events=EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_replay_determinism(self, events):
        def run():
            program = compile_text(SCRIPT)
            runtime = NodeRuntime("node1", program, RecordingHooks())
            runtime.start()
            for event in events:
                if event == "recv":
                    runtime.on_classified_packet(
                        "pkt", "node2", "node1", Direction.RECV
                    )
                elif event == "send":
                    runtime.on_classified_packet(
                        "pkt", "node1", "node2", Direction.SEND
                    )
            return runtime.counters_snapshot()

        assert run() == run()

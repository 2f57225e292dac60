"""The stamped :class:`Timer` against the kill-and-push reference.

A re-arm to a deadline no earlier than the timer's pending heap entry keeps
the entry and moves the timer's stamp; the queue re-keys the entry when it
reaches the heap top (:mod:`repro.sim.events`).  Nothing of that may show:
every recipe below is built twice, once with ``sim.timer`` and once with
:class:`tests.oracles.eager_timer.EagerTimer`, which kills and pushes on
every re-arm, and both must fire the same ``(when, seq, label)`` stream and
leave the same queue behind, with the compaction floor patched low enough
that stale entries are swept mid-run.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, events
from tests.oracles.eager_timer import EagerTimer

TIMERS = 3
SCRIPTS = 5
STEPS = 200

#: ``("start", k, delay)`` arms or re-arms timer k (later, earlier or at the
#: same instant as its pending firing, as the state has it); ``("stop", k)``
#: disarms it; ``("after", delay, j)`` schedules a fire-and-forget event
#: that runs script j.  Timer k runs script k when it fires.
ACTION = st.one_of(
    st.tuples(st.just("start"), st.integers(0, TIMERS - 1), st.integers(0, 8)),
    st.tuples(st.just("stop"), st.integers(0, TIMERS - 1)),
    st.tuples(st.just("after"), st.integers(0, 8), st.integers(0, SCRIPTS - 1)),
)
RECIPE = st.tuples(
    st.lists(ACTION, min_size=1, max_size=12),  # performed at t=0
    st.lists(st.lists(ACTION, max_size=4), min_size=SCRIPTS, max_size=SCRIPTS),
)


def build(recipe, eager):
    initial, scripts = recipe
    sim = Simulator(seed=1)
    fired = []
    sim.add_trace_hook(lambda when, seq, label: fired.append((when, seq, label)))
    timers = []

    def perform(actions):
        for action in actions:
            if action[0] == "start":
                timers[action[1]].start(action[2])
            elif action[0] == "stop":
                timers[action[1]].stop()
            else:
                sim.after(action[1], run, f"e{action[2]}", args=(action[2],))

    def run(script):
        perform(scripts[script])

    for k in range(TIMERS):
        timers.append(EagerTimer(sim, run, f"t{k}", k) if eager else sim.timer(run, f"t{k}", k))
    perform(initial)
    return sim, fired


def state(sim, fired):
    queue = sim.queue
    return (list(fired), sim.now, sim.events_processed, len(queue), queue.peek_time(), queue.snapshot())


def step_only(sim, fired):
    """``step()`` with no peek between: ``pop()`` alone must settle the top."""
    for _ in range(STEPS):
        if not sim.step():
            break
    return fired, sim.now, sim.events_processed, len(sim.queue)


class TestStampedTimerMatchesKillAndPush:
    @settings(max_examples=200, deadline=None)
    @given(recipe=RECIPE, compact_floor=st.sampled_from([0, 2, 32]))
    def test_same_events_and_queue_as_the_eager_timer(self, recipe, compact_floor):
        with mock.patch.object(events, "COMPACT_MIN_DEAD", compact_floor):
            stamped, eager = build(recipe, False), build(recipe, True)
            assert state(*stamped) == state(*eager)
            for _ in range(STEPS):
                more = stamped[0].step()
                assert more == eager[0].step()
                assert state(*stamped) == state(*eager)
                if not more:
                    break
            assert step_only(*build(recipe, False)) == step_only(*build(recipe, True))
            drained, reference = build(recipe, False), build(recipe, True)
            assert drained[0].drain(max_events=STEPS) is reference[0].drain(max_events=STEPS)
            assert state(*drained) == state(*reference)

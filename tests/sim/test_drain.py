"""The fused drain loop against a ``step()``-driven loop.

``Simulator.step`` is the readable one-event reference (pop, advance,
hooks, fire, recycle through the queue's public methods);
``Simulator.drain`` — which ``run``, ``run_until`` and
``Testbed.run_scenario`` share — inlines all of that on local bindings.
Every scenario here is built twice from one recipe and must come out the
same either way: fire order (same-instant ties included), clock,
``events_processed``, trace-hook sequence, live queue length.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import DrainEnd, Simulator
from repro.sim.events import COMPACT_MIN_DEAD


def build(recipe, hooks=False):
    """A simulator loaded from *recipe*: ``(delay, pooled, action)`` triples.

    *action* is what the event's callback does besides logging itself:
    ``("spawn", delay)`` schedules a child, ``("cancel", k)`` cancels the
    k-th root event (possibly a later one of the same instant, possibly
    one that already fired), ``("stop",)`` calls ``sim.stop()``.
    """
    sim = Simulator(seed=1)
    log, hooked, handles = [], [], []
    if hooks:
        sim.add_trace_hook(lambda handle: hooked.append((handle.when, handle.seq, handle.label)))

    def fire(tag, action):
        log.append((sim.now, tag))
        if action[0] == "spawn":
            sim.after(action[1], lambda: log.append((sim.now, f"{tag}+")), f"{tag}+", pooled=True)
        elif action[0] == "cancel":
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "stop":
            sim.stop()

    for index, (delay, pooled, action) in enumerate(recipe):
        if pooled and action[0] != "cancel":
            # pooled handles are fire-and-forget: never kept, never cancelled
            sim.after(delay, lambda i=index, a=action: fire(i, a), str(index), pooled=True)
        else:
            handles.append(sim.after(delay, lambda i=index, a=action: fire(i, a), str(index)))
    return sim, log, hooked


def step_until(sim, deadline=None, max_events=50_000_000):
    """The parent's loops, spelled with the public one-event API."""
    fired = 0
    sim._stop_requested = False
    while not sim._stop_requested:
        upcoming = sim.queue.peek_time()
        if upcoming is None or (deadline is not None and upcoming > deadline):
            break
        if fired >= max_events:
            raise SimulationError("event cap")
        sim.step()
        fired += 1
    stopped, sim._stop_requested = sim._stop_requested, False
    if deadline is not None and not stopped:
        sim.clock.advance_to(deadline)


def outcome(sim, log, hooked):
    return (log, hooked, sim.now, sim.events_processed, len(sim.queue), sim.queue.snapshot())


ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("spawn"), st.integers(0, 30)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.just(("stop",)),
)
RECIPES = st.lists(
    st.tuples(st.integers(0, 20), st.booleans(), ACTIONS), min_size=1, max_size=40
)


class TestDrainMatchesStep:
    @settings(max_examples=150, deadline=None)
    @given(recipe=RECIPES, hooks=st.booleans(), deadline=st.one_of(st.none(), st.integers(0, 40)))
    def test_same_outcome_as_a_step_loop(self, recipe, hooks, deadline):
        fused = build(recipe, hooks)
        stepped = build(recipe, hooks)
        for _ in range(3):  # a stop() leaves events queued: resume, as callers do
            if deadline is None:
                fused[0].run()
            else:
                fused[0].run_until(max(deadline, fused[0].now))
            step_until(stepped[0], None if deadline is None else max(deadline, stepped[0].now))
            assert outcome(*fused) == outcome(*stepped)

    @pytest.mark.parametrize(
        "recipe",
        [
            # five same-instant ties fire in scheduling order
            [(7, False, ("none",))] * 5,
            # the first of three same-instant events cancels the last
            [(5, False, ("cancel", 2)), (5, False, ("none",)), (5, False, ("none",))],
            # an event cancels itself / one that already fired: both no-ops
            [(1, False, ("none",)), (2, False, ("cancel", 0)), (3, False, ("cancel", 2))],
            # stop() inside a callback leaves the same-instant sibling queued
            [(4, False, ("stop",)), (4, True, ("none",)), (9, True, ("spawn", 0))],
            # pooled and unpooled interleaved, children spawned at +0
            [(3, True, ("spawn", 0)), (3, False, ("spawn", 0)), (3, True, ("none",))],
        ],
    )
    @pytest.mark.parametrize("hooks", [False, True])
    def test_table(self, recipe, hooks):
        fused, stepped = build(recipe, hooks), build(recipe, hooks)
        fused[0].run()
        step_until(stepped[0])
        assert outcome(*fused) == outcome(*stepped)
        fused[0].run()
        step_until(stepped[0])
        assert outcome(*fused) == outcome(*stepped)

    def test_event_cap_trips_at_the_same_event(self):
        def respawning():
            sim = Simulator()
            log = []

            def again():
                log.append(sim.now)
                sim.after(1, again)

            sim.after(1, again)
            return sim, log

        fused, stepped = respawning(), respawning()
        with pytest.raises(SimulationError):
            fused[0].run_until(10_000, max_events=100)
        with pytest.raises(SimulationError):
            step_until(stepped[0], 10_000, max_events=100)
        assert fused[1] == stepped[1]
        assert fused[0].events_processed == stepped[0].events_processed == 100
        assert fused[0].now == stepped[0].now == 100
        # exactly max_events events and then an empty queue is not an overrun
        sim = Simulator()
        for t in range(5):
            sim.after(t, lambda: None)
        sim.run(max_events=5)
        assert sim.events_processed == 5


class TestDrainContract:
    def test_end_reasons(self, sim):
        sim.after(10, lambda: None)
        sim.after(20, lambda: None)
        sim.after(30, sim.stop)
        sim.after(40, lambda: None)
        assert sim.drain(deadline=10, max_events=5) is DrainEnd.DEADLINE
        assert sim.now == 10  # the clock stays at the last event fired
        assert sim.drain(max_events=1) is DrainEnd.BUDGET
        assert sim.drain() is DrainEnd.STOPPED
        assert sim.now == 30 and len(sim.queue) == 1
        assert sim.drain() is DrainEnd.DRAINED
        assert sim.events_processed == 4

    def test_until_is_polled_before_every_event(self, sim):
        fired = []
        for t in (1, 2, 3):
            sim.after(t, lambda t=t: fired.append(t))
        assert sim.drain(until=lambda: len(fired) == 2) is DrainEnd.STOPPED
        assert fired == [1, 2] and sim.now == 2
        assert sim.drain(until=lambda: True) is DrainEnd.STOPPED  # before the first event too
        assert fired == [1, 2]

    def test_drain_is_not_reentrant(self, sim):
        sim.after(1, sim.drain)
        with pytest.raises(SimulationError):
            sim.drain()
        sim.after(1, lambda: None)
        assert sim.drain() is DrainEnd.DRAINED  # the guard was released

    def test_clock_never_runs_backwards(self, sim):
        sim.after(10, lambda: None)
        sim.clock.advance_to(50)  # someone moved the clock past a queued event
        with pytest.raises(SimulationError):
            sim.run()


class TestCompactionMidLoop:
    """``EventQueue._compact`` used to rebind the heap to a new list; a loop
    holding the old list kept draining stale entries (cancelled timers
    fired, the clock ran backwards)."""

    def test_mass_cancel_inside_a_callback(self, sim):
        fired = []
        timers = [
            sim.after(1000 + t, lambda t=t: fired.append(("timer", t)))
            for t in range(4 * COMPACT_MIN_DEAD)
        ]
        keep = set(range(0, len(timers), 16))

        def cancel_most():
            fired.append(("cancel", sim.now))
            for t, handle in enumerate(timers):
                if t not in keep:
                    handle.cancel()
            # compaction ran while the drain loop was mid-iteration
            assert sim.queue.heap_size < len(timers) // 2

        sim.after(500, cancel_most)
        sim.after(600, lambda: fired.append(("after", sim.now)))
        sim.after(10_000, lambda: fired.append(("last", sim.now)))
        sim.run_until(20_000)
        assert fired == (
            [("cancel", 500), ("after", 600)]
            + [("timer", t) for t in sorted(keep)]
            + [("last", 10_000)]
        )
        assert len(sim.queue) == 0
        assert sim.queue.heap_size == 0
        assert sim.events_processed == 3 + len(keep)
        assert sim.now == 20_000

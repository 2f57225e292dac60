"""The fused drain loop against a ``step()``-driven loop.

``Simulator.step`` is the readable one-event reference (pop — which hands
back a handle for either heap-entry shape — advance, hooks, fire, through
the queue's public methods); ``Simulator.drain`` — which ``run``,
``run_until`` and ``Testbed.run_scenario`` share — inlines all of that on
local bindings and fires a fire-and-forget entry straight from its tuple.
Every scenario here is built twice from one recipe and must come out the
same either way: fire order (same-instant ties included), clock,
``events_processed``, trace-hook sequence, live queue length.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.scripts import tcp_congestion_script
from repro.sim import DrainEnd, Simulator, events, seconds, simulator
from repro.sim.events import COMPACT_MIN_DEAD
from tests.conftest import make_testbed


def build(recipe, hooks=False):
    """A simulator loaded from *recipe*: ``(delay, forget, action)`` triples.

    With *forget* the event is a fire-and-forget (handle-free) heap entry
    carrying its ``(tag, action)`` as scheduling-time arguments; otherwise
    it is a closure whose handle is kept for the cancel actions.
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
            child = f"{tag}+"
            assert sim.after(action[1], fire, child, args=(child, ("none",))) is None
        elif action[0] == "cancel":
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "stop":
            sim.stop()

    for index, (delay, forget, action) in enumerate(recipe):
        if forget and action[0] != "cancel":
            # nothing is handed out, so nothing can be kept or cancelled
            assert sim.after(delay, fire, str(index), args=(index, action)) is None
        else:  # a cancel action needs at least one handle to aim at: its own
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
    @given(
        recipe=RECIPES,
        hooks=st.booleans(),
        deadline=st.one_of(st.none(), st.integers(0, 40)),
        # patched low, a few cancels compact the heap in the middle of the
        # loop while fire-and-forget entries sit in it
        compact_floor=st.sampled_from([0, 2, COMPACT_MIN_DEAD]),
    )
    def test_same_outcome_as_a_step_loop(self, recipe, hooks, deadline, compact_floor):
        with mock.patch.object(events, "COMPACT_MIN_DEAD", compact_floor):
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
            # both entry shapes interleaved at one instant, children spawned at +0
            [(3, True, ("spawn", 0)), (3, False, ("spawn", 0)), (3, True, ("none",))],
            # a cancellable event between two fire-and-forget ones cancels a
            # later same-instant handle; the handle-free entries are untouched
            [(6, True, ("none",)), (6, False, ("cancel", 1)), (6, True, ("spawn", 0)),
             (6, False, ("none",)), (6, True, ("none",))],
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

    def test_stop_ends_the_loop_after_its_event(self, sim):
        fired = []

        def log(t):
            fired.append(t)
            if len(fired) == 2:
                sim.stop()

        for t in (1, 2, 2, 3):
            sim.after(t, log, args=(t,))
        assert sim.drain() is DrainEnd.STOPPED
        assert fired == [1, 2] and sim.now == 2 and len(sim.queue) == 2
        sim.stop()  # outside a loop: the next drain starts afresh
        assert sim.drain(max_events=1) is DrainEnd.BUDGET
        assert fired == [1, 2, 2]

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
    fired, the clock ran backwards).  Fire-and-forget entries share the
    heap with the cancelled timers and must all survive the rebuild."""

    def test_mass_cancel_inside_a_callback(self, sim):
        fired = []
        timers = []
        for t in range(4 * COMPACT_MIN_DEAD):
            timers.append(sim.after(1000 + t, lambda t=t: fired.append(("timer", t))))
            if t % 64 == 0:  # same instant as the timer, scheduled after it
                sim.after(1000 + t, fired.append, args=(("frame", t),))
        keep = set(range(0, len(timers), 16))
        frames = set(range(0, len(timers), 64))

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
        survivors = []
        for t in sorted(keep):
            survivors.append(("timer", t))
            if t in frames:
                survivors.append(("frame", t))
        assert fired == [("cancel", 500), ("after", 600)] + survivors + [("last", 10_000)]
        assert len(sim.queue) == 0
        assert sim.queue.heap_size == 0
        assert sim.events_processed == 3 + len(keep) + len(frames)
        assert sim.now == 20_000


#: the eight scheduled hops of one wire frame between two stacked hosts ...
HOP_LABELS = {"tcp:tx", "ip:tx", "m0:txdone", "m0:deliver", "ip:rx", "tcp:rx"} | {
    f"driver:node{n}-eth0:{way}" for n in (1, 2) for way in ("tx", "rx")
}
#: ... and what the VirtualWire engine and the RLL add to them.
ENGINE_HOP_LABELS = {"rll:tx", "rll:rx", "vw:forward"}


class TestHopsBuildNoHandle:
    """Every per-frame hop is fire-and-forget: over a TCP transfer not one
    :class:`EventHandle` is constructed for a hop label — unless a trace
    hook is registered, which is what the detached handle exists for."""

    @staticmethod
    def transfer(monkeypatch, hook):
        built = []

        class CountedHandle(events.EventHandle):
            __slots__ = ()

            def __init__(self, when, seq, callback, label):
                built.append(label)
                super().__init__(when, seq, callback, label)

        monkeypatch.setattr(events, "EventHandle", CountedHandle)
        monkeypatch.setattr(simulator, "EventHandle", CountedHandle)
        tb, (n1, n2) = make_testbed(medium="hub", rll=True)
        if hook is not None:
            tb.sim.add_trace_hook(hook)

        def workload():
            n2.tcp.listen(0x4000)
            conn = n1.tcp.connect(n2.ip, 0x4000, local_port=0x6000)
            conn.on_established = lambda: conn.send(bytes(8 * 1024))

        report = tb.run_scenario(
            tcp_congestion_script(tb.node_table_fsl()), workload=workload, max_time=seconds(30)
        )
        assert report.passed, report.render()
        return built

    def test_no_handle_per_hop(self, monkeypatch):
        built = self.transfer(monkeypatch, hook=None)
        assert built  # timers (tcp:rto, rll:rto, ...) do get handles
        assert not set(built) & (HOP_LABELS | ENGINE_HOP_LABELS)

    def test_trace_hook_sees_hops_as_detached_handles(self, monkeypatch):
        seen = []
        built = self.transfer(monkeypatch, hook=seen.append)
        labels = {handle.label for handle in seen}
        assert HOP_LABELS | ENGINE_HOP_LABELS <= labels
        hops = [handle for handle in seen if handle.label in HOP_LABELS | ENGINE_HOP_LABELS]
        assert all(h.queue is None and h.callback is None and not h.cancelled for h in hops)
        assert sorted((h.when, h.seq) for h in seen) == [(h.when, h.seq) for h in seen]
        assert len(hops) == sum(label in HOP_LABELS | ENGINE_HOP_LABELS for label in built)

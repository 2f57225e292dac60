"""The fused drain loop against a ``step()``-driven loop.

``Simulator.step`` is the readable one-event reference (pop, advance,
hooks, fire, through the queue's public methods); ``Simulator.drain`` —
which ``run``, ``run_until`` and ``Testbed.run_scenario`` share — inlines
all of that on local bindings.  Every scenario here is built twice from one
recipe and must come out the same either way: fire order (same-instant ties
included), clock, ``events_processed``, trace-hook sequence, live queue
length.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.scripts import tcp_congestion_script
from repro.sim import DrainEnd, Simulator, Timer, events, seconds, simulator
from repro.sim.events import COMPACT_MIN_DEAD
from tests.conftest import make_testbed


def build(recipe, hooks=False):
    """A simulator loaded from *recipe*: ``(delay, forget, action)`` triples.

    With *forget* the event is fire-and-forget (``sim.after``, carrying its
    ``(tag, action)`` as arguments); otherwise it is a :class:`Timer`, kept
    for the stop and re-arm actions.  *action* is what the event's callback
    does besides logging itself: ``("spawn", delay)`` schedules a
    fire-and-forget child, ``("stop", k)`` stops the k-th timer and
    ``("rearm", k, delay)`` re-arms it if it is still pending (possibly a
    later one of the same instant, possibly one that already fired, possibly
    itself), ``("halt",)`` calls ``sim.stop()``.
    """
    sim = Simulator(seed=1)
    log, hooked, timers = [], [], []
    if hooks:
        sim.add_trace_hook(lambda when, seq, label: hooked.append((when, seq, label)))

    def fire(tag, action):
        log.append((sim.now, tag))
        if action[0] == "spawn":
            child = f"{tag}+"
            sim.after(action[1], fire, child, args=(child, ("none",)))
        elif action[0] == "stop":
            timers[action[1] % len(timers)].stop()
        elif action[0] == "rearm":
            timer = timers[action[1] % len(timers)]
            if timer.armed:  # so that every timer fires at most once
                timer.start(action[2])
        elif action[0] == "halt":
            sim.stop()

    for index, (delay, forget, action) in enumerate(recipe):
        if forget and action[0] not in ("stop", "rearm"):
            sim.after(delay, fire, str(index), args=(index, action))
        else:  # a stop or re-arm needs at least one timer to aim at: its own
            timers.append(sim.timer(fire, str(index), index, action))
            timers[-1].start(delay)
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
        assert deadline >= sim.now
        sim._now = deadline


def outcome(sim, log, hooked):
    return (log, hooked, sim.now, sim.events_processed, len(sim.queue), sim.queue.snapshot())


ACTIONS = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("spawn"), st.integers(0, 30)),
    st.tuples(st.just("stop"), st.integers(0, 40)),
    st.tuples(st.just("rearm"), st.integers(0, 40), st.integers(0, 30)),
    st.just(("halt",)),
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
        # patched low, a few stops and re-arms compact the heap in the
        # middle of the loop while fire-and-forget entries sit in it
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
            # the first of three same-instant timers stops the last
            [(5, False, ("stop", 2)), (5, False, ("none",)), (5, False, ("none",))],
            # a timer stops itself / one that already fired: both no-ops
            [(1, False, ("none",)), (2, False, ("stop", 0)), (3, False, ("stop", 2))],
            # re-arming a pending same-instant timer moves it behind a later one
            [(5, False, ("rearm", 1, 0)), (5, False, ("none",)), (5, True, ("none",))],
            # re-arming a timer that already fired, or itself, does nothing
            [(1, False, ("none",)), (2, False, ("rearm", 0, 5)), (3, False, ("rearm", 2, 5))],
            # stop() inside a callback leaves the same-instant sibling queued
            [(4, False, ("halt",)), (4, True, ("none",)), (9, True, ("spawn", 0))],
            # timers and fire-and-forget events interleaved at one instant,
            # children spawned at +0
            [(3, True, ("spawn", 0)), (3, False, ("spawn", 0)), (3, True, ("none",))],
            # a timer between two fire-and-forget events stops a later
            # same-instant timer; the fire-and-forget entries are untouched
            [(6, True, ("none",)), (6, False, ("stop", 1)), (6, True, ("spawn", 0)),
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
        with mock.patch.object(simulator, "MAX_EVENTS", 100), pytest.raises(SimulationError):
            fused[0].run_until(10_000)
        with pytest.raises(SimulationError):
            step_until(stepped[0], 10_000, max_events=100)
        assert fused[1] == stepped[1]
        assert fused[0].events_processed == stepped[0].events_processed == 100
        assert fused[0].now == stepped[0].now == 100
        # exactly max_events events and then an empty queue is not an overrun
        sim = Simulator()
        for t in range(5):
            sim.after(t, lambda: None)
        with mock.patch.object(simulator, "MAX_EVENTS", 5):
            sim.run()
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
        sim.run_until(50)
        for loop in (sim.run, sim.step):
            sim.queue.push(10, None, print, (), "late")  # at() refuses the past; the raw queue does not
            with pytest.raises(SimulationError):
                loop()
            assert sim.now == 50


class TestCompactionMidLoop:
    """``EventQueue._compact`` used to rebind the heap to a new list; a loop
    holding the old list kept draining stale entries (stopped timers
    fired, the clock ran backwards).  Fire-and-forget entries share the
    heap with the stopped timers' dead entries and must all survive the
    rebuild."""

    def test_mass_cancel_inside_a_callback(self, sim):
        fired = []
        timers = []
        for t in range(4 * COMPACT_MIN_DEAD):
            timers.append(sim.timer(fired.append, "", ("timer", t)))
            timers[-1].start(1000 + t)
            if t % 64 == 0:  # same instant as the timer, scheduled after it
                sim.after(1000 + t, fired.append, args=(("frame", t),))
        keep = set(range(0, len(timers), 16))
        frames = set(range(0, len(timers), 64))

        def stop_most():
            fired.append(("stop", sim.now))
            for t, timer in enumerate(timers):
                if t not in keep:
                    timer.stop()
            # compaction ran while the drain loop was mid-iteration
            assert sim.queue.heap_size < len(timers) // 2

        sim.after(500, stop_most)
        sim.after(600, lambda: fired.append(("after", sim.now)))
        sim.after(10_000, lambda: fired.append(("last", sim.now)))
        sim.run_until(20_000)
        survivors = []
        for t in sorted(keep):
            survivors.append(("timer", t))
            if t in frames:
                survivors.append(("frame", t))
        assert fired == [("stop", 500), ("after", 600)] + survivors + [("last", 10_000)]
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
    """Over a TCP transfer every heap entry is ``(when, seq, arm, callback,
    args, label)``: each per-frame hop is fire-and-forget (``arm`` is None)
    and every arm is a one-slot list that held a :class:`Timer`; a trace
    hook sees ``(when, seq, label)`` of every event fired, in order."""

    @staticmethod
    def transfer(monkeypatch, size=8 * 1024):
        pushed, seen, sizes = [], [], []
        push = events.EventQueue.push

        def recording(queue, when, arm, callback, args, label):
            pushed.append((label, arm, callback))
            return push(queue, when, arm, callback, args, label)

        monkeypatch.setattr(events.EventQueue, "push", recording)
        tb, (n1, n2) = make_testbed(medium="hub", rll=True)
        tb.sim.add_trace_hook(lambda when, seq, label: seen.append((when, seq, label)))
        queue = tb.sim.queue
        tb.sim.add_trace_hook(lambda *_: sizes.append((queue.heap_size, len(queue))))

        def workload():
            n2.tcp.listen(0x4000)
            conn = n1.tcp.connect(n2.ip, 0x4000, local_port=0x6000)
            conn.on_established = lambda: conn.send(bytes(size))

        report = tb.run_scenario(
            tcp_congestion_script(tb.node_table_fsl()), workload=workload, max_time=seconds(30)
        )
        assert report.passed, report.render()
        return tb.sim, pushed, seen, sizes

    def test_no_handle_per_hop(self, monkeypatch):
        sim, pushed, _, _ = self.transfer(monkeypatch)
        hops = HOP_LABELS | ENGINE_HOP_LABELS
        assert hops <= {label for label, _, _ in pushed}
        assert all(arm is None for label, arm, _ in pushed if label in hops)
        arms = [(arm, callback) for _, arm, callback in pushed if arm is not None]
        assert arms  # tcp:rto, rll:rto, control:rto, ... are timers
        assert all(len(arm) == 1 and isinstance(arm[0], (Timer, type(None))) for arm, _ in arms)
        assert all(not hasattr(callback, "__self__") for _, callback in arms)  # holds no timer
        assert all(len(entry) == 6 for entry in sim.queue._heap)

    def test_trace_hook_sees_every_hop(self, monkeypatch):
        sim, pushed, seen, _ = self.transfer(monkeypatch)
        hops = HOP_LABELS | ENGINE_HOP_LABELS
        assert hops <= {label for _, _, label in seen}
        assert sorted((when, seq) for when, seq, _ in seen) == [(w, s) for w, s, _ in seen]
        assert len(seen) == sim.events_processed
        fired_hops = sum(label in hops for _, _, label in seen)
        assert fired_hops == sum(label in hops for label, _, _ in pushed) - sum(
            label in hops for _, label in sim.queue.snapshot()
        )

    def test_the_heap_holds_what_will_fire(self, monkeypatch):
        """The RLL's and TCP's retransmission timers are re-armed on every
        ack; each keeps one heap entry, so over a 1 MiB transfer the heap
        stays near the live count (at most 25 entries against 18 live)
        instead of piling up a dead entry per re-arm (1 040 when every
        re-arm killed and pushed)."""
        _, _, _, sizes = self.transfer(monkeypatch, size=1 << 20)
        assert max(heap for heap, _ in sizes) <= 2 * max(live for _, live in sizes) + COMPACT_MIN_DEAD

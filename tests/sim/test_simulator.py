"""Tests for the simulator facade: scheduling, run loops, re-armable timers."""

import gc
import re
import weakref

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Simulator, simulator
from tests.conftest import make_two_hosts


class TestScheduling:
    def test_after_fires_at_right_time(self, sim):
        seen = []
        sim.after(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_at_absolute(self, sim):
        seen = []
        sim.at(250, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [250]

    def test_past_scheduling_rejected(self, sim):
        sim.after(100, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.at(50, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.after(-1, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf"), True, 2.7, 3.0, "5"])
    def test_a_time_that_is_not_an_int_is_refused(self, sim, time):
        """A NaN or infinite time used to count as pending with nothing in
        the heap, a bool scheduled at +1 ns, a fraction was truncated."""
        timer = sim.timer(lambda: None, "t")
        for schedule in (
            lambda: sim.at(time, lambda: None),
            lambda: sim.after(time, lambda: None),
            lambda: timer.start(time),
        ):
            with pytest.raises(SchedulingError, match=f"int: {re.escape(repr(time))}$"):
                schedule()
        assert len(sim.queue) == 0 and sim.queue.heap_size == 0 and not timer.armed
        assert "pending=0" in repr(sim)
        assert sim.step() is False

    def test_cancel(self, sim):
        """A :class:`Timer` is the one cancellable event; ``at``/``after``
        hand out nothing to keep or cancel."""
        seen = []
        timer = sim.timer(seen.append, "t", 1)
        timer.start(10)
        timer.stop()
        assert sim.after(10, seen.append, "a", args=(2,)) is None
        assert sim.at(5, lambda: seen.append(0)) is None
        sim.run()
        assert seen == [0, 2]

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.after(5, lambda: seen.append(("inner", sim.now)))

        sim.after(10, outer)
        sim.run()
        assert seen == [("outer", 10), ("inner", 15)]


class TestDefer:
    """``Simulator.defer``, the one hop primitive every layer charges its
    host cost through."""

    def test_zero_delay_calls_at_once_and_schedules_nothing(self, sim):
        seen = []
        sim.defer(0, lambda *args: seen.append((sim.now, args)), "hop", 1, 2)
        assert seen == [(0, (1, 2))]
        assert sim.queue.heap_size == 0 and len(sim.queue) == 0
        assert sim.events_processed == 0
        sim.run()
        assert sim.events_processed == 0

    def test_positive_delay_pushes_the_entry_after_would(self):
        def hop(*args):
            pass

        deferred, scheduled = Simulator(seed=1), Simulator(seed=1)
        for sim in (deferred, scheduled):
            sim.after(3, hop, "warm-up")
            sim.run()
        deferred.defer(250, hop, "ip:tx", b"frame", 7)
        scheduled.after(250, hop, "ip:tx", args=(b"frame", 7))
        assert deferred.queue._heap == scheduled.queue._heap
        assert deferred.queue._heap[0][:3] == (253, 1, None)

    def test_reboot_discards_a_deferred_hop_of_the_host(self, sim):
        _, h1, h2 = make_two_hosts(sim)
        got = []
        h2.udp.bind(9).on_receive = lambda payload, ip, port: got.append(payload)
        h1.udp.bind(5).sendto(b"previous life", h2.ip, 9)
        assert sim.queue.snapshot() == [(h1.costs.udp_ns, "udp:tx")]
        h1.crash()
        h1.reboot()
        assert len(sim.queue) == 0
        sim.run()
        assert got == []


class TestRunLoops:
    def test_run_until_stops_clock_at_deadline(self, sim):
        sim.after(10, lambda: None)
        sim.run_until(500)
        assert sim.now == 500

    def test_run_until_leaves_future_events(self, sim):
        seen = []
        sim.after(1000, lambda: seen.append(1))
        sim.run_until(500)
        assert seen == []
        sim.run_until(1500)
        assert seen == [1]

    def test_run_until_past_deadline_rejected(self, sim):
        sim.run_until(100)
        with pytest.raises(SchedulingError):
            sim.run_until(50)

    def test_run_for(self, sim):
        sim.run_for(300)
        sim.run_for(200)
        assert sim.now == 500

    def test_event_cap_trips(self, sim, monkeypatch):
        def respawn():
            sim.after(1, respawn)

        sim.after(1, respawn)
        monkeypatch.setattr(simulator, "MAX_EVENTS", 1000)
        with pytest.raises(SimulationError):
            sim.run()

    def test_stop_exits_loop(self, sim):
        seen = []

        def first():
            seen.append(1)
            sim.stop()

        sim.after(1, first)
        sim.after(2, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        sim.run()  # the second event is still queued
        assert seen == [1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_run_not_reentrant(self, sim):
        def evil():
            sim.run()

        sim.after(1, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for t in range(5):
            sim.after(t + 1, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestTimer:
    def test_fires_once_at_start_plus_delay(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now), "t")
        assert not timer.armed
        sim.run_until(5)
        timer.start(10)
        assert timer.armed
        sim.run_until(100)
        assert fired == [15]
        assert not timer.armed

    def test_start_while_armed_leaves_one_firing_at_the_new_deadline(self, sim):
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now), "t")
        timer.start(10)
        sim.run_until(4)
        timer.start(10)
        assert len(sim.queue) == 1
        sim.run_until(100)
        assert fired == [14]

    def test_stop_before_firing_and_stop_is_idempotent(self, sim):
        fired = []
        timer = sim.timer(fired.append, "t", "x")
        timer.start(10)
        timer.stop()
        timer.stop()
        assert not timer.armed
        assert len(sim.queue) == 0
        sim.run_until(100)
        assert fired == []

    def test_stop_after_firing_leaves_the_queue_alone(self, sim):
        timer = sim.timer(lambda: None, "t")
        timer.start(10)
        sim.after(50, lambda: None)
        sim.run_until(20)
        assert len(sim.queue) == 1
        timer.stop()
        assert len(sim.queue) == 1

    def test_not_armed_inside_its_own_callback(self, sim):
        seen = []
        timer = sim.timer(lambda: seen.append(timer.armed), "t")
        timer.start(3)
        sim.run()
        assert seen == [False]

    def test_callback_restarting_itself_ticks_every_interval(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 10:
                timer.start(10)

        timer = sim.timer(tick, "t")
        timer.start(10)
        sim.run_until(55)
        assert ticks == [10, 20, 30, 40, 50]
        sim.at(65, timer.stop)
        sim.run_until(1000)
        assert ticks == [10, 20, 30, 40, 50, 60]
        assert not timer.armed

    def test_same_instant_timers_fire_in_start_order(self, sim):
        fired, labels = [], []
        sim.add_trace_hook(lambda when, seq, label: labels.append((label, seq)))
        late = sim.timer(fired.append, "late", "late")
        early = sim.timer(fired.append, "early", "early")
        early.start(10)
        late.start(10)
        sim.run()
        assert fired == ["early", "late"]
        (first, first_seq), (second, second_seq) = labels
        assert (first, second) == ("early", "late")
        assert second_seq == first_seq + 1  # one sequence number per start

    def test_negative_delay_rejected(self, sim):
        timer = sim.timer(lambda: None, "t")
        with pytest.raises(SchedulingError):
            timer.start(-1)
        assert not timer.armed and len(sim.queue) == 0

    @pytest.mark.parametrize("disarm", ["stop", "re-arm"])
    def test_dead_entry_releases_the_timer_and_its_owner(self, sim, disarm):
        """A stopped or re-armed timer's old entry waits in the heap until
        it surfaces, but it no longer reaches the timer: a crashed peer's
        state hanging off the timer is free at once."""

        class Owner:
            def expire(self):
                pass

        owner = Owner()
        owner.timer = sim.timer(owner.expire, "t")
        owner.timer.start(100)
        if disarm == "stop":
            owner.timer.stop()
        else:
            owner.timer.start(200)
            sim.timer(lambda: None, "other").start(300)
            owner.timer.stop()  # the re-arm's own entry dies too
        gone = weakref.ref(owner)
        del owner
        gc.collect()
        assert gone() is None
        assert sim.queue.heap_size >= 1 and len(sim.queue) == (disarm == "re-arm")

    def test_stopped_timer_entry_skips_the_hooks(self, sim):
        """A dead entry is not an event: no hook call, no count."""
        hooked = []
        sim.add_trace_hook(lambda when, seq, label: hooked.append(label))
        timer = sim.timer(lambda: None, "dead")
        timer.start(5)
        timer.start(10)
        sim.run()
        assert hooked == ["dead"] and sim.events_processed == 1 and sim.now == 10


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulator(seed=99)
            trace = []
            rng = sim.random.stream("jitter")

            def emit(tag):
                trace.append((sim.now, tag))
                sim.after(rng.randint(1, 50), lambda: emit(tag))

            for tag in range(3):
                sim.after(1, lambda t=tag: emit(t))
            sim.run_until(2000)
            return trace

        assert run_once() == run_once()

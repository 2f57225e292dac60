"""Tests for the deterministic event queue: one entry shape,
``(when, seq, arm, callback, args, label)``, where only a :class:`Timer`
arm can be killed (``Timer.stop()`` and a re-arm to an earlier deadline
are the one way to cancel an event), and a re-arm to a later deadline
moves the timer's stamp instead of its entry."""

import pytest

from repro.errors import SchedulingError
from repro.sim import Simulator
from repro.sim.events import COMPACT_MIN_DEAD, EventQueue


def fire(entry):
    entry[3](*entry[4])


def push(q, when, callback, label="", args=()):
    """A fire-and-forget entry, as ``Simulator.at`` pushes it."""
    q.push(when, None, callback, args, label)


def armed(sim, when, label="", callback=print, args=()):
    """A :class:`Timer` started to fire at absolute time *when*; returns it."""
    timer = sim.timer(callback, label, *args)
    timer.start(when - sim.now)
    return timer


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        for when in (30, 10, 20):
            push(q, when, fired.append, args=(when,))
        while q:
            fire(q.pop())
        assert fired == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        order = []
        for tag in range(5):
            push(q, 100, order.append, args=(tag,))
        while q:
            fire(q.pop())
        assert order == [0, 1, 2, 3, 4]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        push(q, 50, print)
        push(q, 40, print)
        assert q.peek_time() == 40


class TestCancellation:
    def test_cancelled_event_never_pops(self):
        sim = Simulator()
        q = sim.queue
        push(q, 10, print, "keep")
        armed(sim, 5, "drop").stop()
        assert len(q) == 1
        assert q.pop()[5] == "keep"

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        timer = sim.timer(print, "t")
        timer.start(10)
        timer.stop()
        timer.stop()
        assert len(sim.queue) == 0 and sim.queue.heap_size == 1

    def test_cancel_clears_callback_reference(self):
        """A killed entry keeps no reference to what its arm held: the
        entry's callback and arguments reach the timer only through it."""
        sim = Simulator()
        timer = sim.timer(print, "t")
        timer.start(10)
        (entry,) = sim.queue._heap
        timer.stop()
        assert entry[2] == [None] and entry[4] == ([None],)
        assert not hasattr(entry[3], "__self__")  # a module function, not timer._fire

    def test_pop_empty_raises(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.queue.pop()
        armed(sim, 1).stop()
        with pytest.raises(SchedulingError):
            sim.queue.pop()  # the only entry is dead

    def test_pop_skips_leading_cancelled(self):
        sim = Simulator()
        first = armed(sim, 1, "first")
        second = armed(sim, 2, "second")
        first.stop()
        assert sim.queue.pop()[2] == [second]


class TestHousekeeping:
    def test_none_callback_rejected(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            push(q, 1, None)
        with pytest.raises(SchedulingError):
            q.push(1, ["a timer"], None, (), "")
        assert len(q) == 0 and q.heap_size == 0

    def test_snapshot_sorted_and_labelled(self):
        sim = Simulator()
        q = sim.queue
        push(q, 30, print, "c")
        push(q, 10, print, "a")
        armed(sim, 20, "b").stop()
        armed(sim, 10, "a2")
        assert q.snapshot() == [(10, "a"), (10, "a2"), (30, "c")]


class TestCompaction:
    """Mass killing must not leave the heap full of dead entries."""

    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        timers = [armed(sim, t) for t in range(4000)]
        # Stop all but every 8th timer — the stop-then-start churn pattern.
        for i, timer in enumerate(timers):
            if i % 8:
                timer.stop()
        q = sim.queue
        assert len(q) == 500
        # Dead entries beyond the floor and the live count are swept.
        assert q.heap_size - len(q) <= max(COMPACT_MIN_DEAD, len(q))
        assert q.heap_size < len(timers) // 2

    def test_small_queues_stay_lazy(self):
        sim = Simulator()
        timers = [armed(sim, t) for t in range(COMPACT_MIN_DEAD + 1)]
        for timer in timers[:-1]:
            timer.stop()
        # Up to the floor nothing compacts: lazy discard is cheaper.
        assert sim.queue.heap_size == COMPACT_MIN_DEAD + 1
        assert len(sim.queue) == 1
        armed(sim, 0).stop()  # one past the floor, and more dead than live
        assert sim.queue.heap_size == 1

    def test_firing_order_preserved_across_compaction(self):
        sim = Simulator()
        fired, keep = [], []
        for t in range(3000):
            timer = armed(sim, t // 3, callback=fired.append, args=(t,))
            if t % 2:
                keep.append(t)
            else:
                timer.stop()
        assert sim.queue.heap_size < 3000  # compacted on the way
        sim.run()
        assert fired == keep  # (when, seq) order survives the heapify

    def test_direct_handle_cancel_updates_live_count(self):
        """A timer kills its arm straight through the queue: the live count
        (and thus ``while queue:`` loops) must stay exact."""
        sim = Simulator()
        timer = sim.timer(print, "t")
        timer.start(1)
        sim.after(2, print)
        timer.stop()
        assert len(sim.queue) == 1
        sim.queue.pop()
        assert len(sim.queue) == 0
        assert not sim.queue

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        timer = sim.timer(print, "t")
        timer.start(1)
        sim.after(5, print)
        assert sim.step()  # the timer fires
        timer.stop()
        assert len(sim.queue) == 1  # nothing was left to undo


class TestFireAndForget:
    """Every ``at``/``after`` entry has no arm: queue bookkeeping is total
    over both kinds of entry, and nothing cancellable is handed out."""

    @staticmethod
    def mixed():
        """Both kinds interleaved: 10 f, 10 t, 20 f, 20 t(stopped), 30 f."""
        sim = Simulator()
        q = sim.queue
        fired = []
        push(q, 30, fired.append, "f30", args=(30,))
        push(q, 10, fired.append, "f10", args=(10,))
        timer = armed(sim, 10, "t10", fired.append, ("t10",))
        push(q, 20, fired.append, "f20", args=(20,))
        armed(sim, 20, "t20", fired.append, ("t20",)).stop()
        return q, fired, timer

    def test_len_bool_peek_and_snapshot_count_both_shapes(self):
        q, _, _ = self.mixed()
        assert len(q) == 4 and q
        assert q.heap_size == 5  # the stopped timer's entry is discarded lazily
        assert q.peek_time() == 10
        assert q.snapshot() == [(10, "f10"), (10, "t10"), (20, "f20"), (30, "f30")]

    def test_pop_hands_back_the_entry_tuple(self):
        q, fired, timer = self.mixed()
        when, seq, arm, callback, args, label = first = q.pop()
        assert (when, seq, arm, callback, args, label) == (10, 1, None, fired.append, (10,), "f10")
        assert len(q) == 3
        assert q.pop()[2] == [timer]
        fire(first)
        while q:
            fire(q.pop())
        assert fired == [10, 20, 30]
        assert q.heap_size == 0

    def test_empty_args_are_still_fire_and_forget(self):
        sim = Simulator()
        fired = []
        assert sim.after(1, lambda: fired.append("no args")) is None
        assert sim.after(1, fired.append, args=("args",)) is None
        sim.run()
        assert fired == ["no args", "args"]

    def test_compaction_keeps_every_handle_free_entry(self):
        sim = Simulator()
        q = sim.queue
        fired = []
        timers = []
        for t in range(4 * COMPACT_MIN_DEAD):
            timers.append(armed(sim, t, callback=fired.append, args=(("timer", t),)))
            if t % 7 == 0:
                push(q, t, fired.append, args=(("frame", t),))
        for timer in timers:
            timer.stop()
        assert q.heap_size < len(timers) // 2  # compacted, more than once
        assert len(q) == len(range(0, len(timers), 7))
        while q:
            fire(q.pop())
        assert fired == [("frame", t) for t in range(0, len(timers), 7)]

    def test_nothing_to_cancel_is_an_error_not_a_noop(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            sim.after(5, print, args=("never cancelled",)).cancel()  # no handle
        assert len(sim.queue) == 1  # the event itself is untouched

    def test_args_need_a_callback(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.after(1, None, args=(b"frame",))
        assert len(sim.queue) == 0 and sim.queue.heap_size == 0


class Owner:
    def method(self, log, tag):
        log.append(tag)


class TestDiscard:
    """A rebooting host drops its last life's fire-and-forget entries: those
    whose callback is a method of one of the owners it names."""

    def test_drops_only_the_owners_fire_and_forget_entries(self):
        sim = Simulator()
        q = sim.queue
        mine, theirs = Owner(), Owner()
        fired = []
        push(q, 5, mine.method, "mine", args=(fired, "mine@5"))
        push(q, 5, theirs.method, "theirs", args=(fired, "theirs@5"))
        armed(sim, 5, "timer", mine.method, (fired, "timer@5"))  # a timer's own business
        push(q, 6, fired.append, "closure", args=("closure@6",))
        push(q, 7, mine.method, "mine", args=(fired, "mine@7"))
        q.discard([mine])
        assert len(q) == 3 and q.heap_size == 3
        while q:
            fire(q.pop())
        assert fired == ["theirs@5", "timer@5", "closure@6"]

    def test_owners_match_by_identity(self):
        class Equal(Owner):
            def __eq__(self, other):
                return True

            __hash__ = object.__hash__

        q = EventQueue()
        push(q, 1, Equal().method, args=([], "kept"))
        q.discard([Equal()])
        assert len(q) == 1


class TestStamps:
    """A re-arm to a later deadline moves the timer's stamp, not its heap
    entry: the heap holds what will fire, and what fires is unchanged."""

    def test_rearmed_later_ten_thousand_times_holds_one_entry(self):
        sim = Simulator()
        fired = []
        sim.add_trace_hook(lambda when, seq, label: fired.append((when, label)))
        timer = sim.timer(lambda: None, "rto")
        for delay in range(1, 10_000):
            timer.start(delay)
        assert sim.queue.heap_size == 1 and len(sim.queue) == 1
        sim.at(10_000, print, "pushed before")
        timer.start(10_000)  # the last re-arm: its stamp follows "pushed before"
        sim.at(10_000, print, "pushed after")
        assert sim.queue.heap_size == 3
        assert sim.queue.snapshot() == [(10_000, "pushed before"), (10_000, "rto"), (10_000, "pushed after")]
        sim.run()
        assert fired == [(10_000, "pushed before"), (10_000, "rto"), (10_000, "pushed after")]
        assert sim.events_processed == 3 and sim.queue.heap_size == 0

    def test_a_stamp_takes_a_sequence_number_as_a_push_would(self):
        sim = Simulator()
        seqs = []
        sim.add_trace_hook(lambda when, seq, label: seqs.append((when, seq, label)))
        timer = sim.timer(lambda: None, "t")
        timer.start(5)  # seq 0
        sim.after(9, print, "f")  # seq 1
        timer.start(9)  # seq 2: no push, one entry
        sim.after(9, print, "g")  # seq 3
        assert sim.queue.heap_size == 3
        assert sim.queue.peek_time() == 9  # the stale top is re-keyed to the stamp
        sim.run()
        assert seqs == [(9, 1, "f"), (9, 2, "t"), (9, 3, "g")]

    def test_rearm_earlier_kills_the_entry_and_pushes_anew(self):
        sim = Simulator()
        timer = sim.timer(lambda: None, "t")
        timer.start(100)
        timer.start(50)
        assert sim.queue.heap_size == 2 and len(sim.queue) == 1
        assert sim.queue.snapshot() == [(50, "t")]
        timer.start(80)  # later than the new entry: a stamp again
        assert sim.queue.heap_size == 2 and sim.queue.peek_time() == 80

    def test_stop_start_cycles_are_swept_at_the_floor(self):
        sim = Simulator()
        timer = sim.timer(lambda: None, "echo:timeout")
        peak = 0
        for delay in range(1, 10_001):
            timer.stop()
            timer.start(delay)
            peak = max(peak, sim.queue.heap_size)
        assert peak <= 2 + COMPACT_MIN_DEAD and sim.queue.heap_size <= 1 + COMPACT_MIN_DEAD
        assert sim.queue.snapshot() == [(10_000, "echo:timeout")]

    def test_a_stopped_stale_entry_is_dead(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(fired.append, "t", "timer")
        timer.start(5)
        timer.start(10)
        (entry,) = sim.queue._heap
        timer.stop()
        assert entry[2] == [None]  # the stale entry holds no timer either
        sim.after(20, fired.append, args=("after",))
        sim.run()
        assert fired == ["after"] and sim.now == 20

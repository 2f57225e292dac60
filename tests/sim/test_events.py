"""Tests for the deterministic event queue."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import COMPACT_MIN_DEAD, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(30, lambda: fired.append(30))
        q.push(10, lambda: fired.append(10))
        q.push(20, lambda: fired.append(20))
        while q:
            handle = q.pop()
            handle.callback()
        assert fired == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        order = []
        for tag in range(5):
            q.push(100, lambda t=tag: order.append(t))
        while q:
            q.pop().callback()
        assert order == [0, 1, 2, 3, 4]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(50, lambda: None)
        q.push(40, lambda: None)
        assert q.peek_time() == 40


class TestCancellation:
    def test_cancelled_event_never_pops(self):
        q = EventQueue()
        keep = q.push(10, lambda: None, "keep")
        drop = q.push(5, lambda: None, "drop")
        q.cancel(drop)
        assert len(q) == 1
        assert q.pop() is keep

    def test_double_cancel_is_safe(self):
        q = EventQueue()
        handle = q.push(10, lambda: None)
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0

    def test_cancel_clears_callback_reference(self):
        q = EventQueue()
        handle = q.push(10, lambda: None)
        handle.cancel()
        assert handle.callback is None
        assert not handle.pending

    def test_pop_empty_raises(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.pop()

    def test_pop_skips_leading_cancelled(self):
        q = EventQueue()
        first = q.push(1, lambda: None)
        second = q.push(2, lambda: None)
        q.cancel(first)
        assert q.pop() is second


class TestHousekeeping:
    def test_clear(self):
        q = EventQueue()
        for t in range(10):
            q.push(t, lambda: None)
        q.clear()
        assert len(q) == 0
        assert not q

    def test_none_callback_rejected(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.push(1, None)

    def test_snapshot_sorted_and_labelled(self):
        q = EventQueue()
        q.push(30, lambda: None, "c")
        q.push(10, lambda: None, "a")
        b = q.push(20, lambda: None, "b")
        q.cancel(b)
        assert q.snapshot() == [(10, "a"), (30, "c")]


class TestCompaction:
    """Mass cancellation must not leave the heap full of dead entries."""

    def test_mass_cancellation_compacts_heap(self):
        q = EventQueue()
        handles = [q.push(t, lambda: None) for t in range(4000)]
        # Cancel all but every 8th event — the RTO-timer churn pattern.
        survivors = []
        for i, handle in enumerate(handles):
            if i % 8:
                handle.cancel()
            else:
                survivors.append(handle)
        assert len(q) == len(survivors)
        # Dead entries beyond the floor and >50% of the heap are swept.
        assert q.heap_size - len(q) <= COMPACT_MIN_DEAD
        assert q.heap_size < len(handles) // 2

    def test_small_queues_stay_lazy(self):
        q = EventQueue()
        handles = [q.push(t, lambda: None) for t in range(100)]
        for handle in handles[:-1]:
            handle.cancel()
        # Below the floor nothing compacts: lazy discard is cheaper.
        assert q.heap_size == 100
        assert len(q) == 1

    def test_firing_order_preserved_across_compaction(self):
        q = EventQueue()
        fired = []
        keep = []
        for t in range(3000):
            handle = q.push(t // 3, lambda t=t: fired.append(t))
            if t % 2:
                keep.append(t)
            else:
                handle.cancel()
        while q:
            q.pop().callback()
        assert fired == keep  # (when, seq) order survives the heapify

    def test_direct_handle_cancel_updates_live_count(self):
        """TCP timers cancel through the handle, not the queue: the live
        count (and thus ``while queue:`` loops) must stay exact."""
        q = EventQueue()
        a = q.push(1, lambda: None)
        q.push(2, lambda: None)
        a.cancel()
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
        assert not q

    def test_cancel_after_fire_is_a_noop(self):
        q = EventQueue()
        handle = q.push(1, lambda: None)
        popped = q.pop()
        assert popped is handle
        handle.callback = None  # the simulator consumes it on step()
        handle.cancel()
        assert not handle.cancelled  # never marked: there was nothing to undo
        assert len(q) == 0


class TestFireAndForget:
    """The handle-free entry shape (``args=``): every piece of queue
    bookkeeping is total over both shapes, and nothing cancellable is ever
    handed out."""

    @staticmethod
    def mixed():
        """Both shapes interleaved: 10 f, 10 h, 20 f, 20 h(cancelled), 30 f."""
        q = EventQueue()
        fired = []
        assert q.push(30, fired.append, "f30", args=(30,)) is None
        assert q.push(10, fired.append, "f10", args=(10,)) is None
        kept = q.push(10, lambda: fired.append("h10"), "h10")
        assert q.push(20, fired.append, "f20", args=(20,)) is None
        dropped = q.push(20, lambda: fired.append("h20"), "h20")
        dropped.cancel()
        return q, fired, kept

    def test_len_bool_peek_and_snapshot_count_both_shapes(self):
        q, _, _ = self.mixed()
        assert len(q) == 4 and q
        assert q.heap_size == 5  # the cancelled handle is discarded lazily
        assert q.peek_time() == 10
        assert q.snapshot() == [(10, "f10"), (10, "h10"), (20, "f20"), (30, "f30")]

    def test_pop_synthesises_a_detached_handle(self):
        q, fired, kept = self.mixed()
        first = q.pop()
        assert (first.when, first.label) == (10, "f10")
        assert first.queue is None and first.pending
        first.cancel()  # detached: cancelling it cannot skew the live count
        assert len(q) == 3
        assert q.pop() is kept
        while q:
            q.pop().callback()  # the arguments come bound
        assert fired == [20, 30]
        assert q.heap_size == 0

    def test_empty_args_are_still_fire_and_forget(self):
        q = EventQueue()
        fired = []
        assert q.push(1, lambda: fired.append("no args"), args=()) is None
        q.pop().callback()
        assert fired == ["no args"]

    def test_clear_drops_both_shapes(self):
        q, _, kept = self.mixed()
        q.clear()
        assert len(q) == 0 and not q and q.heap_size == 0
        assert q.peek_time() is None and q.snapshot() == []
        assert not kept.pending

    def test_compaction_keeps_every_handle_free_entry(self):
        q = EventQueue()
        fired = []
        handles = []
        for t in range(4 * COMPACT_MIN_DEAD):
            handles.append(q.push(t, lambda t=t: fired.append(("h", t))))
            if t % 7 == 0:
                q.push(t, fired.append, args=(("f", t),))
        for handle in handles:
            handle.cancel()
        assert q.heap_size < len(handles) // 2  # compacted, more than once
        assert len(q) == len(range(0, len(handles), 7))
        while q:
            q.pop().callback()
        assert fired == [("f", t) for t in range(0, len(handles), 7)]

    def test_nothing_to_cancel_is_an_error_not_a_noop(self):
        q = EventQueue()
        with pytest.raises(SchedulingError, match="fire-and-forget"):
            q.cancel(q.push(5, print, args=("never cancelled",)))
        assert len(q) == 1  # the event itself is untouched

    def test_args_need_a_callback(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.push(1, None, args=(b"frame",))
        assert len(q) == 0 and q.heap_size == 0

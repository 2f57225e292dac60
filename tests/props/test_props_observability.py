"""Property tests: truthful capture under saturation, associative metrics.

Two invariants the analysis layer leans on:

* A saturated :class:`~repro.trace.TraceRecorder` (or
  :class:`~repro.core.audit.AuditLog`) must keep the **exact prefix** of
  what was offered and account for every drop — a bounded log that
  silently reshuffles or miscounts would make the FAE's narratives lie.
* Metric snapshot **merge is associative** (and order-insensitive for
  counters/histograms), so the parallel sweep backend can combine
  per-worker snapshots in any grouping and match the serial reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Histogram, merge_values
from repro.core.audit import AuditLog
from repro.sim import Simulator
from repro.trace import TraceRecorder

payloads = st.lists(st.binary(min_size=0, max_size=32), max_size=40)
samples = st.lists(st.integers(min_value=0, max_value=10**12), max_size=30)


def hist(values) -> Histogram:
    h = Histogram()
    for v in values:
        h.observe(v)
    return h


class TestSaturationTruthfulness:
    @given(frames=payloads, cap=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_capture_keeps_exact_prefix_and_counts_drops(self, frames, cap):
        recorder = TraceRecorder(Simulator(seed=1))
        recorder.max_records = cap
        for data in frames:
            recorder.capture("node1", "send", data)
        kept = [r.data for r in recorder.records]
        assert kept == frames[:cap]
        assert recorder.dropped_records == max(0, len(frames) - cap)
        text = recorder.render()
        if recorder.dropped_records:
            assert text.endswith(f"(capture saturated at {cap})")
            assert f"{recorder.dropped_records} record" in text
        else:
            assert "dropped" not in text

    @given(details=st.lists(st.text(max_size=8), max_size=25),
           cap=st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_audit_log_prefix_and_drop_count(self, details, cap):
        log = AuditLog(Simulator(seed=1))
        log.max_events = cap
        for detail in details:
            log.record("node1", "fault", detail)
        assert [e.detail for e in log.events] == details[:cap]
        assert log.dropped == max(0, len(details) - cap)
        if log.dropped:
            assert f"(log saturated at {cap})" in log.render()


class TestHistogramMergeAlgebra:
    @given(a=samples, b=samples, c=samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        sa, sb, sc = hist(a).snapshot(), hist(b).snapshot(), hist(c).snapshot()
        left = merge_values(merge_values(sa, sb), sc)
        right = merge_values(sa, merge_values(sb, sc))
        assert left == right

    @given(a=samples, b=samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_combined_stream(self, a, b):
        merged = merge_values(hist(a).snapshot(), hist(b).snapshot())
        assert merged == hist(a + b).snapshot()

    @given(a=samples, b=samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_commutative(self, a, b):
        sa, sb = hist(a).snapshot(), hist(b).snapshot()
        assert merge_values(sa, sb) == merge_values(sb, sa)

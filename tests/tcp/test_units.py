"""Unit tests for TCP helpers: sequence math, buffers, RTO, congestion."""

import pytest

from repro.sim import JIFFY_NS, ms, seconds
from repro.tcp.buffers import SendBuffer
from repro.tcp.congestion import INITIAL_CWND, CongestionControl
from repro.tcp.rto import MAX_RTO_NS, MIN_RTO_NS, RttEstimator
from repro.tcp.seqmath import seq_add, seq_diff, seq_gt, seq_le
from repro.tcp.variants import (
    AggressiveSlowStart,
    EagerCongestionAvoidance,
    FrozenWindow,
    IgnoresSsthreshReset,
    NoCongestionAvoidance,
    VARIANTS,
)


class TestSeqMath:
    def test_add_wraps(self):
        assert seq_add(0xFFFFFFFF, 2) == 1

    def test_diff_signed(self):
        assert seq_diff(10, 5) == 5
        assert seq_diff(5, 10) == -5

    def test_diff_across_wrap(self):
        assert seq_diff(1, 0xFFFFFFFE) == 3
        assert seq_diff(0xFFFFFFFE, 1) == -3

    def test_comparisons_across_wrap(self):
        assert seq_diff(0xFFFFFFF0, 5) < 0
        assert seq_gt(5, 0xFFFFFFF0)
        assert seq_le(7, 7)


class TestSendBuffer:
    def test_fifo_across_chunks(self):
        buf = SendBuffer()
        buf.append(b"abc")
        buf.append(b"defgh")
        assert buf.pop(4) == b"abcd"
        assert buf.pop(10) == b"efgh"
        assert len(buf) == 0

    def test_partial_head_consumption(self):
        buf = SendBuffer()
        buf.append(b"0123456789")
        assert buf.pop(3) == b"012"
        assert buf.pop(3) == b"345"
        assert len(buf) == 4

    def test_pop_empty(self):
        assert SendBuffer().pop(5) == b""

    def test_pop_zero(self):
        buf = SendBuffer()
        buf.append(b"xy")
        assert buf.pop(0) == b""
        assert len(buf) == 2

    def test_clear(self):
        buf = SendBuffer()
        buf.append(b"data")
        buf.clear()
        assert len(buf) == 0

    def test_empty_append_ignored(self):
        buf = SendBuffer()
        buf.append(b"")
        assert len(buf) == 0


class TestRttEstimator:
    def test_initial_rto_is_one_second(self):
        assert RttEstimator().rto_ns == seconds(1)

    def test_first_sample_sets_srtt(self):
        est = RttEstimator()
        est.on_measurement(ms(100))
        assert est._srtt == ms(100)

    def test_smoothing_converges(self):
        est = RttEstimator()
        for _ in range(50):
            est.on_measurement(ms(40))
        assert abs(est._srtt - ms(40)) < ms(1)
        # Stable RTT: RTO collapses towards the floor.
        assert est.rto_ns <= ms(210)

    def test_rto_quantised_to_jiffies(self):
        est = RttEstimator()
        est.on_measurement(ms(123))
        assert est.rto_ns % JIFFY_NS == 0

    def test_rto_floor(self):
        est = RttEstimator()
        for _ in range(20):
            est.on_measurement(1000)  # 1 us RTT
        assert est.rto_ns >= MIN_RTO_NS

    def test_backoff_doubles_and_caps(self):
        est = RttEstimator()
        first = est.rto_ns
        est.on_timeout()
        assert est.rto_ns == 2 * first
        for _ in range(20):
            est.on_timeout()
        assert est.rto_ns <= MAX_RTO_NS + JIFFY_NS

    def test_fresh_sample_clears_backoff(self):
        est = RttEstimator()
        est.on_measurement(ms(50))
        backed_off = est.on_timeout() or est.rto_ns
        est.on_measurement(ms(50))
        assert est.rto_ns < backed_off

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().on_measurement(-1)


class TestCongestionControl:
    def test_initial_state(self):
        cc = CongestionControl()
        assert cc.cwnd == 1 and cc.ssthresh == 64
        assert cc.in_slow_start

    def test_slow_start_grows_per_ack(self):
        cc = CongestionControl()
        for _ in range(5):
            cc.on_new_ack()
        assert cc.cwnd == 6

    def test_transition_to_congestion_avoidance(self):
        cc = CongestionControl()
        cc.ssthresh = 2
        cc.on_new_ack()  # cwnd 2 (still <= ssthresh)
        cc.on_new_ack()  # cwnd 3: now above ssthresh
        assert not cc.in_slow_start
        # Linear phase: one segment per cwnd+1 acks.
        before = cc.cwnd
        for _ in range(before + 1):
            cc.on_new_ack()
        assert cc.cwnd == before + 1

    def test_retransmit_resets_per_paper(self):
        """'cwnd is reset to 1, and ssthresh drops to half the size of

        cwnd but not less than 2 MSS' (§6.1).
        """
        cc = CongestionControl()
        for _ in range(9):
            cc.on_new_ack()
        assert cc.cwnd == 10
        cc.on_retransmit()
        assert cc.cwnd == 1 and cc.ssthresh == 5

    def test_ssthresh_floor_of_two(self):
        cc = CongestionControl()
        cc.on_retransmit()
        assert cc.ssthresh == 2

    def test_initial_cwnd_choices(self):
        # "cwnd can be set to 1, 2 or 4 times the TCP MSS": this build uses 1.
        assert INITIAL_CWND in (1, 2, 4)
        assert CongestionControl().cwnd == INITIAL_CWND == 1

    def test_duplicate_ack_is_noop_for_tahoe(self):
        cc = CongestionControl()
        cc.on_duplicate_ack(2)
        assert cc.cwnd == 1


class TestVariants:
    def test_registry_complete(self):
        assert set(VARIANTS) == {
            "tahoe",
            "reno",
            "bug-no-congestion-avoidance",
            "bug-ignores-ssthresh-reset",
            "bug-aggressive-slow-start",
            "bug-eager-congestion-avoidance",
            "bug-frozen-window",
        }

    def test_reno_fast_recovery_halves_window(self):
        from repro.tcp import RenoCongestionControl

        cc = RenoCongestionControl()
        for _ in range(15):
            cc.on_new_ack()
        assert cc.cwnd == 16
        cc.on_fast_retransmit()
        assert cc.ssthresh == 8
        assert cc.cwnd == 8  # halved, not collapsed to 1

    def test_reno_timeout_still_resets(self):
        from repro.tcp import RenoCongestionControl

        cc = RenoCongestionControl()
        for _ in range(15):
            cc.on_new_ack()
        cc.on_retransmit()
        assert cc.cwnd == 1

    def test_tahoe_fast_retransmit_resets(self):
        cc = CongestionControl()
        for _ in range(15):
            cc.on_new_ack()
        cc.on_fast_retransmit()
        assert cc.cwnd == 1

    def test_no_congestion_avoidance_never_goes_linear(self):
        cc = NoCongestionAvoidance()
        cc.ssthresh = 2
        for _ in range(10):
            cc.on_new_ack()
        assert cc.cwnd == 11  # grew every ack despite crossing ssthresh

    def test_ignores_ssthresh_reset(self):
        cc = IgnoresSsthreshReset()
        for _ in range(9):
            cc.on_new_ack()
        cc.on_retransmit()
        assert cc.cwnd == 1
        assert cc.ssthresh == 64  # the bug: untouched

    def test_aggressive_slow_start(self):
        cc = AggressiveSlowStart()
        cc.on_new_ack()
        assert cc.cwnd == 3  # +2 per ack

    def test_eager_congestion_avoidance(self):
        cc = EagerCongestionAvoidance()
        cc.ssthresh = 1
        cc.on_new_ack()  # cwnd 2 > ssthresh... slow start at cwnd=1<=1: cwnd 2
        base = cc.cwnd
        cc.on_new_ack()
        cc.on_new_ack()
        assert cc.cwnd == base + 1  # grew after only two CA acks

    def test_frozen_window(self):
        cc = FrozenWindow()
        for _ in range(100):
            cc.on_new_ack()
        assert cc.cwnd == 1

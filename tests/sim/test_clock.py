"""Tests for virtual time: units, jiffy quantisation, duration literals."""

import pytest

from repro.core.fsl import compile_text
from repro.core.tables import ActionKind
from repro.errors import FslError, SimulationError
from repro.sim import clock
from repro.sim.clock import (
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    Clock,
    format_time,
    ms,
    quantize_to_jiffies,
    seconds,
)


def us(value):
    return value * NS_PER_US


def fsl_duration(text: str) -> int:
    """A DELAY's duration as a script writes it, in nanoseconds: the FSL
    lexer reads the unit, and a bare number means milliseconds."""
    program = compile_text(
        "FILTER_TABLE pkt: (12 2 0x0800) END "
        "NODE_TABLE node1 02:00:00:00:00:01 192.168.1.1 "
        "node2 02:00:00:00:00:02 192.168.1.2 END "
        "SCENARIO t A: (pkt, node1, node2, RECV) "
        f"((A = 1)) >> DELAY pkt, node1, node2, RECV, {text}; END"
    )
    (delay,) = [a for a in program.actions if a.kind is ActionKind.DELAY]
    return delay.delay_ns


class TestUnits:
    def test_us(self):
        assert NS_PER_US == 1_000

    def test_ms(self):
        assert ms(1) == 1_000_000

    def test_seconds(self):
        assert seconds(1) == 1_000_000_000

    def test_fractional_values_round(self):
        assert ms(0.25) == 250_000
        assert ms(0.0015) == 1_500

    def test_round_trips(self):
        assert ms(5.5) / NS_PER_MS == 5.5
        assert seconds(2) / NS_PER_SEC == 2.0

    def test_jiffy_constant_is_10ms(self):
        # Paper §5.2: Linux 2.4 software timers tick every 10 ms.
        assert clock.JIFFY_NS == ms(10)


class TestJiffyQuantisation:
    def test_exact_multiple_unchanged(self):
        assert quantize_to_jiffies(ms(20)) == ms(20)

    def test_rounds_up(self):
        assert quantize_to_jiffies(ms(11)) == ms(20)
        assert quantize_to_jiffies(ms(35)) == ms(40)

    def test_minimum_is_one_jiffy(self):
        # "the granularity of delay can be no less than a jiffy".
        assert quantize_to_jiffies(0) == ms(10)
        assert quantize_to_jiffies(1) == ms(10)
        assert quantize_to_jiffies(-5) == ms(10)


class TestParseDuration:
    """FSL duration literals (``repro.core.fsl``'s lexer and compiler)."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1sec", seconds(1)),
            ("2s", seconds(2)),
            ("250ms", ms(250)),
            ("250msec", ms(250)),
            ("40us", us(40)),
            ("40usec", us(40)),
            ("100ns", 100),
            ("1.5ms", 1_500_000),
            ("7", ms(7)),  # bare number defaults to milliseconds
        ],
    )
    def test_accepts(self, text, expected):
        assert fsl_duration(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(FslError):
            fsl_duration("fastish")

    def test_rejects_bad_number(self):
        with pytest.raises(FslError):
            fsl_duration("1.2.3ms")


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advances(self):
        c = Clock()
        c.advance_to(500)
        assert c.now == 500

    def test_same_instant_is_fine(self):
        c = Clock()
        c.advance_to(100)
        c.advance_to(100)
        assert c.now == 100

    def test_refuses_to_run_backwards(self):
        c = Clock()
        c.advance_to(100)
        with pytest.raises(SimulationError):
            c.advance_to(99)


class TestFormatTime:
    def test_scales(self):
        assert format_time(5) == "5ns"
        assert format_time(us(3)) == "3.000us"
        assert format_time(ms(3)) == "3.000ms"
        assert format_time(seconds(3)) == "3.000000s"

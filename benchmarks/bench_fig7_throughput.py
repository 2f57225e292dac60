"""Regenerates the paper's **Figure 7**: TCP throughput vs offered load

with the Fault Injection Layer (25 filters, 25 actions/match) and the
Reliable Link Layer inserted.

Paper's findings (§7):
  * throughput tracks the offered pumping rate through most of the range;
  * there is a noticeable drop beyond ~90 Mbps — the RLL encapsulates both
    TCP data and TCP acks, and its own acknowledgements contend with data
    on the shared segment;
  * the loss stays within 10% of the baseline.

The rendered figure (both curves) is saved to benchmarks/results/fig7.txt.
"""

import pytest

from conftest import campaign_header, save_table, sweep_backend
from repro.bench.fig7 import Fig7Point, fig7_campaign, measure_point, render_table
from repro.sweep import run_sweep

OFFERED_RATES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100)
DURATION_NS = 200_000_000  # 0.2 s of virtual pumping per point


@pytest.fixture(scope="module")
def figure():
    """All 22 cells as one sweep campaign (script compiled once, fanned
    out over the configured backend, rows merged in task order)."""
    backend, workers = sweep_backend()
    outcome = run_sweep(
        fig7_campaign(OFFERED_RATES, duration_ns=DURATION_NS, seed=0),
        backend=backend,
        workers=workers,
    )
    assert outcome.passed, outcome.render()
    points = [
        Fig7Point(
            offered_mbps=row.payload["offered_mbps"],
            with_virtualwire=row.payload["with_virtualwire"],
            goodput_mbps=row.payload["goodput_mbps"],
            retransmissions=row.payload["retransmissions"],
        )
        for row in outcome.rows
    ]
    save_table("fig7", campaign_header(outcome) + "\n" + render_table(points))
    return points


def _curve(points, with_vw):
    return {
        p.offered_mbps: p.goodput_mbps
        for p in points
        if p.with_virtualwire == with_vw
    }


class TestFig7Shape:
    def test_throughput_tracks_offered_rate_below_saturation(self, benchmark, figure):
        vw = benchmark.pedantic(lambda: _curve(figure, True), rounds=1, iterations=1)
        for rate in (10, 20, 30, 40, 50, 60, 70, 80):
            assert vw[rate] == pytest.approx(rate, rel=0.05), (
                f"goodput {vw[rate]:.1f} should track offered {rate} Mbps"
            )

    def test_noticeable_drop_beyond_90(self, benchmark, figure):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        baseline = _curve(figure, False)
        vw = _curve(figure, True)
        # Below the knee both configurations are indistinguishable...
        assert vw[80] == pytest.approx(baseline[80], rel=0.02)
        # ...beyond it the VirtualWire+RLL curve visibly falls behind.
        assert vw[95] < baseline[95]
        assert vw[100] < baseline[100]

    def test_loss_within_ten_percent(self, benchmark, figure):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        baseline = _curve(figure, False)
        vw = _curve(figure, True)
        for rate in OFFERED_RATES:
            loss = (baseline[rate] - vw[rate]) / max(baseline[rate], 1e-9)
            assert loss <= 0.10, (
                f"at {rate} Mbps offered, loss {loss:.1%} exceeds the paper's 10%"
            )

    def test_saturation_plateau(self, benchmark, figure):
        """Past the knee the curve flattens: offered 95 and 100 deliver

        essentially the same goodput.
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        vw = _curve(figure, True)
        assert vw[100] == pytest.approx(vw[95], rel=0.05)


class TestFig7Microbench:
    def test_single_point_cost(self, benchmark):
        """Wall-clock cost of one overload measurement (the worst cell)."""
        point = benchmark.pedantic(
            lambda: measure_point(100, True, duration_ns=DURATION_NS, seed=0),
            rounds=1,
            iterations=1,
        )
        assert point.goodput_mbps > 50

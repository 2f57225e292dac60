"""The paper's §7 claims and the design ablations, checked on every push.

``test_regenerated_equals_pinned`` re-runs every experiment and requires the
exact numbers of ``figures.json``; every other test asserts a claim of the
paper on those pinned numbers, so it costs nothing and cannot flake.
"""

import json
import pathlib

import pytest

from tests.paper import figures

EXPERIMENTS_MD = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
PINNED = json.loads(figures.PINNED.read_text())
TABLES = figures.tables(PINNED)


@pytest.fixture(scope="module")
def regenerated():
    # Through JSON text, so both sides are compared as parsed values.
    return json.loads(figures.dumps(figures.generate()))


def test_same_sections(regenerated):
    assert list(regenerated) == list(PINNED)


@pytest.mark.parametrize("section", list(PINNED))
def test_regenerated_equals_pinned(regenerated, section):
    assert regenerated[section] == PINNED[section], (
        "a simulated fact moved; if intended, rerun `python -m tests.paper.figures`"
    )


def test_pinned_file_is_what_the_command_writes():
    assert figures.PINNED.read_text() == figures.dumps(PINNED)


@pytest.mark.parametrize("name", list(TABLES))
def test_experiments_md_quotes_the_rendered_table(name):
    assert TABLES[name] in EXPERIMENTS_MD.read_text(), "rerun `python -m tests.paper.figures`"


def curve(with_vw):
    return {
        row["offered_mbps"]: row["goodput_mbps"]
        for row in PINNED["fig7"]
        if row["with_virtualwire"] == with_vw
    }


class TestFig7Shape:
    """§7: throughput tracks the offered rate, drops noticeably past
    90 Mbps (RLL acks contend with data), and the loss stays within 10 %."""

    baseline, vw = curve(False), curve(True)

    def test_throughput_tracks_offered_rate_below_saturation(self):
        for rate in (10, 20, 30, 40, 50, 60, 70, 80):
            assert abs(self.vw[rate] - rate) <= 0.05 * rate

    def test_noticeable_drop_beyond_90(self):
        # Below the knee the two configurations are indistinguishable...
        assert abs(self.vw[80] - self.baseline[80]) <= 0.02 * self.baseline[80]
        # ...beyond it the VirtualWire+RLL curve visibly falls behind.
        assert self.vw[95] < self.baseline[95]
        assert self.vw[100] < self.baseline[100]

    def test_loss_within_ten_percent(self):
        for rate, base in self.baseline.items():
            assert (base - self.vw[rate]) / base <= 0.10, rate

    def test_saturation_plateau(self):
        assert abs(self.vw[100] - self.vw[95]) <= 0.05 * self.vw[95]


class TestFig8Shape:
    """§7: overhead is linear in the filter count, actions and the RLL each
    raise it, and it never passes ~7 % of the RTT (calibration slack: 9 %)."""

    overhead = {
        (row["mode"], row["n_filters"]): figures.overhead_percent(row) for row in PINNED["fig8"]
    }

    def test_every_curve_grows_with_the_filter_count(self):
        for mode in ("filters", "actions", "actions+rll"):
            values = [self.overhead[mode, n] for n in figures.FILTER_COUNTS]
            assert all(a < b for a, b in zip(values, values[1:])), mode

    def test_actions_cost_more_than_filters_and_rll_more_than_actions(self):
        for n in figures.FILTER_COUNTS:
            assert (
                self.overhead["filters", n]
                < self.overhead["actions", n]
                < self.overhead["actions+rll", n]
            )

    def test_total_overhead_within_paper_envelope(self):
        assert 0 < max(self.overhead.values()) < 9.0

    def test_linear_not_quadratic(self):
        # 25 vs 10 filters: ~2.5x for a linear scan, 6.25x for a quadratic one.
        assert self.overhead["filters", 25] / self.overhead["filters", 10] < 4.0

    def test_indexed_classifier_leaves_virtual_time_untouched(self):
        production = [row for row in PINNED["fig8"] if row in PINNED["classifier_parity"]]
        assert production == PINNED["classifier_parity"]
        assert len(production) == len(figures.PARITY_FILTER_COUNTS)


class TestRllAblation:
    """§3.3: the RLL gives the controlled environment at a modest cost."""

    cell = {(row["wire"], row["rll"]): row for row in PINNED["rll_ablation"]}

    def test_noisy_wire_without_rll_hurts_tcp(self):
        bare = self.cell["noisy", False]
        assert bare["fcs_drops"] > 0 and bare["tcp_rtx"] > 0

    def test_noisy_wire_with_rll_is_fully_masked(self):
        masked = self.cell["noisy", True]
        assert masked["fcs_drops"] > 0  # the noise happened...
        assert masked["tcp_rtx"] == 0  # ...but TCP never saw it...
        assert masked["rll_rtx"] > 0  # ...because the RLL absorbed it

    def test_clean_wire_rll_cost_is_modest(self):
        plain = self.cell["clean", False]["goodput_mbps"]
        assert 0 <= (plain - self.cell["clean", True]["goodput_mbps"]) / plain < 0.15

    def test_all_transfers_complete(self):
        assert len(self.cell) == 4 and all(row["complete"] for row in self.cell.values())


class TestControlPlaneAblation:
    """§5.2: status broadcast keeps control traffic down, and the reliable
    channel's overhead under control loss stays proportionate."""

    state = {
        row["placement"]: row["state_frames_sent"] / figures.N_PACKETS
        for row in PINNED["control_placement"]
    }
    loss = {row["control_loss"]: row for row in PINNED["control_loss"]}

    def test_placement_ordering(self):
        state = self.state
        assert 0 == state["local"] < state["status-stable"]
        assert state["status-stable"] < state["mirror"] < state["status-flappy"]

    def test_stable_status_broadcast_is_nearly_free(self):
        assert self.state["status-stable"] <= 2 / figures.N_PACKETS  # one flip, one frame

    def test_mirror_traffic_tracks_counter_changes(self):
        assert 0.9 <= self.state["mirror"] <= 1.2

    def test_lossless_run_never_retransmits(self):
        clean = self.loss[0.0]
        assert clean["control_retransmits"] == clean["control_duplicates_dropped"] == 0

    def test_no_loss_rate_degrades_the_run(self):
        assert list(self.loss) == list(figures.CONTROL_LOSS_RATES)
        assert not any(row["degraded"] for row in self.loss.values())

    def test_overhead_grows_with_loss_but_stays_proportionate(self):
        frames = [row["control_frames_sent"] for row in self.loss.values()]
        assert frames == sorted(frames)
        assert self.loss[0.2]["control_retransmits"] > 0
        assert frames[-1] <= 2 * frames[0]  # 20 % loss: well under 2x the lossless wire


class TestCostSensitivity:
    """Fig 8's shape is a property of the design, not of the calibration."""

    overhead = {
        (row["engine_cost_factor"], row["n_filters"]): figures.overhead_percent(row)
        for row in PINNED["cost_sensitivity"]
    }

    def test_growth_with_filters_survives_scaling(self):
        for factor in figures.COST_FACTORS:
            assert 0 < self.overhead[factor, 2] < self.overhead[factor, 25]

    def test_marginal_overhead_scales_with_the_per_entry_cost(self):
        margin = {f: self.overhead[f, 25] - self.overhead[f, 2] for f in figures.COST_FACTORS}
        assert margin[2.0] > 1.5 * margin[1.0]
        assert margin[0.5] < 0.75 * margin[1.0]


def test_classifier_charges_the_linear_scan_but_examines_one_entry():
    rows = PINNED["classifier_cost_split"]
    assert [row["entries"] for row in rows] == list(figures.TABLE_SIZES)
    for row in rows:
        assert row["matched"] == "tcp_data"
        assert row["charged_scan"] == row["entries"] and row["entries_examined"] == 1

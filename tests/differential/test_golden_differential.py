"""Differential golden harness: the production data path ≡ its oracles, end
to end, and both ≡ the pinned digests.

Each golden scenario of ``tests/differential/golden.py`` — the Fig 5 TCP
congestion case study, the extended Fig 6 crash/restart case study, and one
measured point each of the Fig 7 throughput and Fig 8 latency benchmarks —
runs twice with telemetry (capture, audit and metrics) on: once on the
production path (byte-level frame codec, indexed classifier) and once with
``tests/oracles`` patched in (the object-per-layer stack *and* the linear
filter scan).  Every output is compared byte for byte:

* the JSON-serialised ``report.summary()`` (verdict, counters, timing,
  engine stats, per-node metrics, frame journeys),
* the rendered report and the audit-trail narrative,
* the measured benchmark numbers (virtual time must not move at all).

``TestPinnedDigests`` then holds the production run against
``golden_digests.json``, which a change moving both sides equally cannot
satisfy.
"""

import json

import pytest

from tests.differential.golden import (
    DIGESTS_PATH,
    FIG5_SEEDS,
    FIG6_SEED,
    GOLDEN_RUNS,
    digest,
    run_fig5,
    run_fig6_crash,
    run_fig7_point,
    run_fig8_point,
)
from tests.oracles.classifiers import linear_engines
from tests.oracles.reference_layers import reference_layers


def on_oracles(run, *args) -> dict:
    """*run* on the object-per-layer stack with linear-scan engines."""
    with reference_layers(), linear_engines():
        return run(*args)


class TestFig5Golden:
    @pytest.mark.parametrize("seed", FIG5_SEEDS)
    def test_byte_identical_across_codecs(self, seed):
        assert run_fig5(seed) == on_oracles(run_fig5, seed)


class TestFig6CrashGolden:
    def test_byte_identical_across_codecs(self):
        assert run_fig6_crash(FIG6_SEED) == on_oracles(run_fig6_crash, FIG6_SEED)


class TestBenchPointsGolden:
    def test_fig7_point_identical(self):
        """One Fig 7 cell: goodput/retransmissions are virtual-time facts,
        so the codec must not move them by a single bit."""
        assert run_fig7_point() == on_oracles(run_fig7_point)

    def test_fig8_point_identical(self):
        assert run_fig8_point() == on_oracles(run_fig8_point)


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_production_reproduces_the_pinned_digests(self, name):
        pinned = json.loads(DIGESTS_PATH.read_text())
        assert digest(GOLDEN_RUNS[name]()) == pinned[name]

"""The cost model is checked once, when it is built: every layer charges
its field through ``Simulator.defer``, which takes the delay on trust."""

import dataclasses

import pytest

from repro.errors import StackError
from repro.stack import FREE, CostModel


class TestCostModelIsValidatedWhenBuilt:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine_base_ns", -100_000),  # charged a negative cost_charged_ns
            ("tcp_ns", -1),  # ran byte-identical to tcp_ns=0
            ("ip_ns", 1500.7),  # truncated to 1500 by the event queue
            ("udp_ns", True),  # a one-nanosecond hop
            ("rll_frame_ns", False),
            ("driver_rx_ns", "5000"),
        ],
    )
    def test_a_cost_that_is_not_a_non_negative_int_is_refused_by_name(self, field, value):
        with pytest.raises(StackError, match=f"{field} must be a non-negative int"):
            CostModel(**{field: value})
        with pytest.raises(StackError, match=field):
            dataclasses.replace(CostModel(), **{field: value})

    def test_zero_and_the_defaults_are_accepted(self):
        assert CostModel(tcp_ns=0).tcp_ns == 0
        assert all(getattr(FREE, f.name) == 0 for f in dataclasses.fields(CostModel))
        assert CostModel().tcp_ns == 15_000

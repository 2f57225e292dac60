"""Property test: Rether survives an arbitrary single crash.

Whatever node is crashed and whenever, the surviving members must keep the
token circulating (liveness) while never putting two tokens into
circulation at once (safety).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ms, seconds
from tests.conftest import every
from tests.rether.test_rether import build_ring


class TestSingleCrashRecovery:
    @given(
        victim=st.integers(min_value=0, max_value=3),
        crash_at_ms=st.integers(min_value=5, max_value=120),
    )
    @settings(max_examples=25, deadline=None)
    def test_liveness_and_safety(self, victim, crash_at_ms):
        sim, hosts, layers = build_ring(seed=11)
        violations = []

        def check_single_token():
            holders = [
                layer
                for name, layer in layers.items()
                if hosts[int(name[-1]) - 1].is_alive
                and layer.holding_token
                and layer._handoff_msg is None
            ]
            if len(holders) > 1:
                violations.append(sim.now)

        every(sim, ms(2), check_single_token)
        sim.at(ms(crash_at_ms), hosts[victim].fail)
        sim.run_until(seconds(2))

        survivors = [
            layers[f"node{i + 1}"] for i in range(4) if i != victim
        ]
        counts_before = [layer.tokens_received for layer in survivors]
        sim.run_until(seconds(3))
        counts_after = [layer.tokens_received for layer in survivors]
        # Liveness: every survivor keeps receiving the token.
        assert all(b > a for a, b in zip(counts_before, counts_after)), (
            f"token stopped reaching some survivor after crashing "
            f"node{victim + 1} at {crash_at_ms}ms"
        )
        # Safety: never two live holders at once.
        assert violations == []

    @given(victim=st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_crash_then_rejoin_converges(self, victim):
        sim, hosts, layers = build_ring(seed=13)
        sim.run_until(ms(20))
        hosts[victim].fail()
        sim.run_until(seconds(2))
        hosts[victim].recover()
        hosts[victim].rether.rejoin()
        sim.run_until(seconds(4))
        before = hosts[victim].rether.tokens_received
        sim.run_until(seconds(5))
        assert hosts[victim].rether.tokens_received > before
        for layer in layers.values():
            assert len(layer.ring) == 4

"""Tests of the ledger's own machinery (not part of tier-1's testpaths).

    python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import schema  # noqa: E402
import spans  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.workloads.echo import EchoClient  # noqa: E402

SIM, TCP, RLL = (schema.LAYERS.index(name) for name in ("sim", "tcp", "rll"))


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_is_duration_minus_child_spans():
    # sim [0, 100] holds tcp [10, 40] (which holds rll [20, 30]) and tcp [50, 70];
    # a second root, rll [200, 205], stands alone.
    layer = [SIM, TCP, RLL, TCP, RLL]
    parent = [-1, 0, 1, 0, -1]
    start = [0, 10, 20, 50, 200]
    end = [100, 40, 30, 70, 205]
    self_ns, calls = spans.aggregate(layer, parent, start, end)
    assert self_ns[SIM] == 100 - 30 - 20
    assert self_ns[TCP] == (30 - 10) + 20
    assert self_ns[RLL] == 10 + 5
    assert (calls[SIM], calls[TCP], calls[RLL]) == (1, 2, 2)
    # Self times of a forest add up to the time its roots cover.
    assert sum(self_ns) == 100 + 5


def test_same_layer_nesting_is_not_counted_twice():
    self_ns, calls = spans.aggregate([TCP, TCP], [-1, 0], [0, 10], [100, 90])
    assert self_ns[TCP] == 100 and calls[TCP] == 2


# -- the tracer on the real simulator ---------------------------------------------------


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.remove()


def _spans_of(tracer):
    return list(zip(tracer.layer, tracer.parent))


def test_deferred_callback_runs_as_a_span_of_the_scheduling_layer(tracer):
    sim = Simulator(seed=1)
    fired = []
    schedule_from_tcp = tracer.span(TCP, lambda: sim.after(5, lambda: fired.append(sim.now)))
    schedule_from_tcp()
    sim.step()
    assert fired == [5]
    # tcp span -> sim span (the heap push); then step (sim) -> the callback,
    # charged to tcp although the simulator's loop invoked it.
    assert _spans_of(tracer) == [(TCP, -1), (SIM, 0), (SIM, -1), (TCP, 2)]


def test_callback_scheduled_outside_any_span_is_charged_to_its_module(tracer):
    sim = Simulator(seed=1)
    client = EchoClient.__new__(EchoClient)  # a repro.workloads bound method
    client.done, client.on_done = True, None
    sim.after(1, client._finish)
    sim.after(2, lambda: None)  # defined here, in no layer: left unwrapped
    sim.run()
    workloads = schema.LAYERS.index("workloads")
    layers = [layer for layer, _ in _spans_of(tracer)]
    assert layers.count(workloads) == 2  # the deferral and the method's own span
    assert set(layers) == {SIM, workloads}


def test_remove_restores_every_original_function():
    from repro.core.engine import VirtualWireEngine
    from repro.core.testbed import Testbed
    from repro.stack.layers import EthertypeDemux

    watched = [
        (Simulator, "step"),
        (Simulator, "after"),
        (VirtualWireEngine, "on_receive"),
        (EthertypeDemux, "register"),
        (Testbed, "__init__"),
        (EchoClient, "_on_echo"),
    ]
    before = [owner.__dict__[name] for owner, name in watched]
    tracer = spans.Tracer()
    tracer.install()
    assert all(owner.__dict__[name] is not fn for (owner, name), fn in zip(watched, before))
    tracer.remove()
    assert [owner.__dict__[name] for owner, name in watched] == before
    # An untraced run afterwards goes through the originals: nothing is recorded.
    sim = Simulator(seed=1)
    sim.after(1, lambda: None)
    sim.run()
    assert len(tracer.start) == 0


def test_tracing_leaves_the_simulation_identical(tmp_path):
    from workloads import EchoSmall

    def digest():
        workload = EchoSmall(seed=4, scale=0.02, workdir=str(tmp_path))
        return workload.check(workload.run()).digest

    plain = digest()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = digest()
    finally:
        tracer.remove()
    assert traced == plain
    self_ns, _ = tracer.totals()
    assert self_ns[TCP] == 0 and self_ns[schema.LAYERS.index("stack.udp")] > 0
    assert len(tracer.testbeds) == 1


# -- the profile cross-check ---------------------------------------------------------------


def test_profile_charges_helpers_to_their_callers():
    tcp_fn = ("/x/src/repro/tcp/connection.py", 1, "handle_segment")
    ip_fn = ("/x/src/repro/stack/ipstack.py", 1, "send")
    codec = ("/x/src/repro/net/fastpath.py", 1, "encode")
    builtin = ("~", 0, "<built-in method pack>")
    harness = ("/x/benchmarks/ledger/run.py", 1, "main")
    # (cc, nc, tottime, cumtime, callers{caller: (nc, cc, tottime, cumtime)})
    stats = {
        harness: (1, 1, 1.0, 10.0, {}),
        tcp_fn: (1, 1, 3.0, 6.0, {harness: (1, 1, 3.0, 6.0)}),
        ip_fn: (1, 1, 2.0, 3.0, {tcp_fn: (1, 1, 2.0, 3.0)}),
        codec: (2, 2, 2.0, 4.0, {tcp_fn: (1, 1, 0.5, 1.0), ip_fn: (1, 1, 1.5, 3.0)}),
        builtin: (2, 2, 2.0, 2.0, {codec: (2, 2, 2.0, 2.0)}),
    }
    shares = spans.profile_shares(stats)
    # codec: 0.5 to tcp, 1.5 to ip; builtin (all under codec): 1/4 tcp, 3/4 ip.
    assert shares["tcp"] == pytest.approx((3.0 + 0.5 + 0.5) / 10)
    assert shares["stack.ip"] == pytest.approx((2.0 + 1.5 + 1.5) / 10)
    assert sum(shares.values()) == pytest.approx(0.9)  # the harness's 1.0 s stays out


# -- percentiles ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected", [(9, None), (19, None), (20, 50), (40, 75), (100, 90), (199, 90), (200, 95), (216, 95), (1000, 99)]
)
def test_highest_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert schema.highest_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 217))
    assert schema.percentile(values, 50) == 108
    assert schema.percentile(values, 95) == 206  # ten samples lie beyond it
    assert len([v for v in values if v > schema.percentile(values, 95)]) == 10


# -- compare.py ----------------------------------------------------------------------------


def _result(samples, metric="wall_s", workload="fig7_vw", nproc=2, digest="d", failed=0.0):
    bound = schema.END_TO_END[metric].bounds[workload]
    entry = {
        "sim_digest": digest,
        "end_to_end": {
            metric: {"unit": "s", "bound": bound, **schema.summarize(samples)},
            "failed_share": {"unit": "share", "bound": 0.0, **schema.summarize([failed])},
        },
    }
    return {
        "header": {"git_sha": "0" * 40, "seed": 0, "nproc": nproc},
        "workloads": {workload: entry},
    }


STEADY = [1.00, 1.01, 0.99, 1.00, 1.01, 1.00, 0.99, 1.00, 1.01, 1.00]


def _verdicts(a, b):
    lines, counts = compare.compare(a, b)
    return counts, "\n".join(lines)


def test_compare_unchanged_and_worse_and_better():
    counts, _ = _verdicts(_result(STEADY), _result(STEADY))
    assert counts == {"better": 0, "worse": 0, "unchanged": 2, "unresolved": 0, "diagnostic": 0}
    counts, text = _verdicts(_result(STEADY), _result([v * 1.08 for v in STEADY]))
    assert counts["worse"] == 1 and "1.080x of 1" in text
    counts, _ = _verdicts(_result(STEADY), _result([v * 0.90 for v in STEADY]))
    assert counts["better"] == 1
    # Within the 5 % bound and within A's own quartile distance: nothing to say.
    counts, _ = _verdicts(_result(STEADY), _result([v * 1.004 for v in STEADY]))
    assert counts["unchanged"] == 2


def test_compare_unresolved_when_spread_exceeds_bound_and_runs_overlap():
    noisy = [0.90, 1.10, 0.95, 1.05, 1.00, 0.92, 1.08, 0.97, 1.03, 1.00]
    counts, _ = _verdicts(_result(noisy), _result([v * 1.02 for v in noisy]))
    assert counts["unresolved"] == 1 and counts["worse"] == 0
    # The same spread, but every run of B is beyond every run of A: resolved.
    counts, _ = _verdicts(_result(noisy), _result([v * 1.5 for v in noisy]))
    assert counts["worse"] == 1 and counts["unresolved"] == 0


def test_compare_higher_is_better_metrics_flip_direction():
    rates = [100.0 * v for v in STEADY]
    a = _result(rates, metric="frames_per_s")
    b = _result([v * 0.9 for v in rates], metric="frames_per_s")
    assert _verdicts(a, b)[0]["worse"] == 1
    assert _verdicts(b, a)[0]["better"] == 1


def test_compare_setup_floor_and_failed_share_and_digest():
    # setup_s: 10 % or 50 ms, whichever is larger — 0.30 s -> 0.34 s is inside.
    quick = [0.30 + 0.001 * i for i in range(10)]
    a, b = _result(quick, metric="setup_s"), _result([v + 0.04 for v in quick], metric="setup_s")
    assert _verdicts(a, b)[0]["worse"] == 0
    assert _verdicts(a, _result([v + 0.06 for v in quick], metric="setup_s"))[0]["worse"] == 1
    counts, text = _verdicts(_result(STEADY), _result(STEADY, failed=0.01, digest="other"))
    assert counts["worse"] == 1
    assert "simulated statistics changed" in text


def test_compare_diagnostic_workloads_never_decide_the_verdict():
    slow = [v * 1.5 for v in STEADY]
    counts, text = _verdicts(
        _result(STEADY, workload="durable_cold"), _result(slow, workload="durable_cold")
    )
    assert counts["worse"] == 0 and counts["diagnostic"] == 1
    assert "worse (diagnostic)" in text
    p95 = _result(STEADY, metric="cell_wall_p95_ms", workload="fault_campaign")
    slow_p95 = _result(slow, metric="cell_wall_p95_ms", workload="fault_campaign")
    assert _verdicts(p95, slow_p95)[0]["worse"] == 0
    # ... but an operation that starts failing there still does.
    counts, _ = _verdicts(
        _result(STEADY, workload="durable_cold"),
        _result(STEADY, workload="durable_cold", failed=0.5),
    )
    assert counts["worse"] == 1


def test_compare_main_exit_codes(tmp_path, capsys):
    def write(name, result):
        path = tmp_path / name
        path.write_text(json.dumps(result))
        return str(path)

    same = write("a.json", _result(STEADY))
    assert compare.main([same, same]) == 0
    assert compare.main([same, write("b.json", _result([v * 1.2 for v in STEADY]))]) == 1
    assert compare.main([same, write("c.json", _result(STEADY, nproc=1))]) == 2
    assert "refusing to compare" in capsys.readouterr().err


# -- BENCHMARK.json is the schema's projection ---------------------------------------------------


def test_benchmark_json_matches_the_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert contract["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in contract["workloads"]] == list(schema.CONTRACT_WORKLOADS)
    assert all(w["why"] == schema.WORKLOADS[w["name"]] for w in contract["workloads"])
    assert [m["name"] for m in contract["end_to_end"]] == list(schema.CONTRACT_END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} == schema.PER_LAYER
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["unit"] == schema.END_TO_END[metric["name"]].unit

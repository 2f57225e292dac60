"""Integration: the FAE reconstructs the Fig 5 story end to end.

The paper's motivating example (§1, Fig 5): a filter drops the SYNACK
from node2 to node1 once; TCP times out and retransmits; the connection
recovers.  With telemetry enabled the analysis layer must recover that
narrative automatically — the drop decision, the retransmission and the
eventual delivery joined into one journey — identically on the serial
and parallel sweep backends, while leaving default (telemetry-off) runs
byte-for-byte unchanged.
"""

import json

import pytest

from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import SweepSpec, run_script_task, run_sweep

WORKLOAD = {"kind": "tcp_bulk", "bytes": 32 * 1024}

TELEMETRY_KEYS = {
    "metrics",
    "journeys",
    "audit_events_dropped",
    "trace_records_dropped",
}


def telemetry_spec(**extra) -> SweepSpec:
    fig5 = tcp_congestion_script(canonical_node_table(2))
    spec = SweepSpec("fae", base_seed=11)
    spec.add(
        "fig5/telemetry",
        run_script_task,
        script=fig5,
        seed=0,
        telemetry=True,
        workload=WORKLOAD,
        **extra,
    )
    return spec


@pytest.fixture(scope="module")
def payload():
    outcome = run_sweep(telemetry_spec(), backend="serial")
    row = outcome.rows[0]
    assert row.ok and row.payload["passed"], outcome.render()
    return row.payload


class TestFig5Story:
    def test_dropped_synack_journey_reconstructed(self, payload):
        """The SYNACK's journey: sent at node2, dropped by the fault at
        node1, retransmitted at node2 after the RTO, finally received."""
        stories = [
            j
            for j in payload["journeys"]
            if j["events"] and j["retransmits"] >= 1
        ]
        assert stories, "no fault-affected journey found"
        synack = stories[0]
        kinds = {(e["node"], e["kind"]) for e in synack["events"]}
        assert ("node1", "fault") in kinds
        assert any("DROP" in e["detail"] for e in synack["events"])
        sends_at_origin = [
            h for h in synack["hops"] if h["node"] == "node2" and h["direction"] == "send"
        ]
        received = [
            h for h in synack["hops"] if h["node"] == "node1" and h["direction"] == "recv"
        ]
        assert len(sends_at_origin) >= 2  # original + retransmission
        assert received, "retransmitted frame never delivered"
        # The fault decision precedes the retransmission which precedes
        # the delivery: the ordered narrative the paper asks for.
        fault_ns = synack["events"][0]["time_ns"]
        assert sends_at_origin[0]["time_ns"] <= fault_ns < received[0]["time_ns"]

    def test_metrics_capture_the_recovery(self, payload):
        metrics = payload["metrics"]
        assert metrics["node1"]["engine.faults_applied"] >= 1
        rtx = sum(
            node.get("tcp.timeout_retransmits", 0) for node in metrics.values()
        )
        assert rtx >= 1
        rtt = metrics["node1"]["tcp.rtt_ns"]
        assert rtt["type"] == "histogram" and rtt["count"] > 0
        assert metrics["node1"]["driver.tx_frames"] > 0
        assert metrics["node2"]["driver.rx_frames"] > 0

    def test_payload_is_jsonable_and_canonical(self, payload):
        round_trip = json.loads(json.dumps(payload, sort_keys=True))
        assert round_trip == payload
        digests = [(j["first_ns"], j["digest"]) for j in payload["journeys"]]
        assert digests == sorted(digests)


class TestBackendIdentity:
    def test_serial_and_parallel_telemetry_byte_identical(self):
        spec = telemetry_spec()
        serial = run_sweep(spec, backend="serial")
        parallel = run_sweep(spec, backend="parallel", workers=2)
        assert serial.rows[0].ok, serial.render()
        assert serial.canonical_bytes() == parallel.canonical_bytes()


class TestDisabledByDefault:
    def test_default_payload_has_no_telemetry_keys(self):
        fig5 = tcp_congestion_script(canonical_node_table(2))
        spec = SweepSpec("plain", base_seed=11).add(
            "fig5/default", run_script_task, script=fig5, seed=0, workload=WORKLOAD
        )
        outcome = run_sweep(spec, backend="serial")
        row = outcome.rows[0]
        assert row.ok and row.payload["passed"]
        assert TELEMETRY_KEYS.isdisjoint(row.payload)

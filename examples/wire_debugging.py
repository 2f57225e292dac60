#!/usr/bin/env python3
"""Debugging a FAIL verdict: wire capture plus the engine audit trail.

When a scenario flags an error, the tester's next question is *why*.  This
example runs the Fig 5 congestion-control scenario against a deliberately
broken TCP (one that never switches to congestion avoidance), gets the
FAIL verdict, and then reconstructs the story from two of the diagnostic
channels that ``install_virtualwire(telemetry=True)`` switches on:

* the **audit log** (``testbed.audit_log``) — the engine's own narrative:
  which rules fired, where, when, and the FLAG_ERROR that decided the
  verdict;
* the **wire capture** (``testbed.recorder``) — a tcpdump-style view of
  the packets around the failure instant, which shows the burst of data
  segments the window model had no credit for.

Run:  python examples/wire_debugging.py
"""

from repro import Testbed, seconds
from repro.scripts import tcp_congestion_script
from repro.tcp import VARIANTS

SENDER_PORT = 0x6000
RECEIVER_PORT = 0x4000


def main() -> None:
    testbed = Testbed(seed=7)
    node1 = testbed.add_host("node1")
    node2 = testbed.add_host("node2")
    testbed.add_switch("sw0")
    testbed.connect("sw0", node1, node2)
    testbed.install_virtualwire(control="node1", telemetry=True)

    script = tcp_congestion_script(testbed.node_table_fsl())
    buggy = VARIANTS["bug-no-congestion-avoidance"]

    def workload() -> None:
        node2.tcp.listen(RECEIVER_PORT)
        conn = node1.tcp.connect(
            node2.ip, RECEIVER_PORT, local_port=SENDER_PORT, congestion=buggy()
        )
        conn.on_established = lambda: conn.send(bytes(48 * 1024))

    report = testbed.run_scenario(script, workload=workload, max_time=seconds(60))

    print("=== verdict ===")
    print(report.render())
    assert not report.passed and report.errors

    print("\n=== audit trail (errors and the rules around them) ===")
    for event in testbed.audit_log.events:
        if event.kind in ("error", "fault"):
            print("  " + event.render())
    first_error = report.errors[0]

    print("\n=== wire, the millisecond before the first FLAG_ERROR ===")
    window_start = first_error.time_ns - 1_000_000
    nearby = testbed.recorder.select(
        where="node1",
        predicate=lambda r: window_start <= r.when <= first_error.time_ns
        and r.view.tcp is not None,
    )
    for record in nearby[-12:]:
        print("  " + record.render())

    sends = [r for r in nearby if r.direction == "send" and r.view.tcp.payload]
    print(
        f"\ndiagnosis: {len(sends)} data segments left node1 in the last "
        f"millisecond before the invariant tripped — the implementation "
        f"is sending beyond the window the specification allows "
        f"(it never leaves slow start)."
    )


if __name__ == "__main__":
    main()

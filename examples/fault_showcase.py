#!/usr/bin/env python3
"""A tour of every Table II packet-fault primitive on one UDP stream.

Four scenarios run back to back on fresh two-node testbeds, each injecting
a different fault into a numbered UDP stream and observing the result at
the receiving application — plus a wire trace from the capture tap so you
can see the fault happen:

* DELAY   — one datagram held for 35 ms (quantised up to 40 ms: the DELAY
            primitive inherits Linux's 10 ms jiffy granularity);
* REORDER — three datagrams buffered and released in reverse order;
* DUP     — one datagram duplicated (the receiver sees it twice);
* MODIFY  — one datagram's payload corrupted; the UDP checksum catches it
            and the receiving stack drops the datagram.

Run:  python examples/fault_showcase.py
"""

from repro import Testbed, seconds

HEADER = """
FILTER_TABLE
  udp_pkt: (12 2 0x0800), (23 1 0x11), (36 2 0x1389)
END
{node_table}
"""

SCENARIOS = {
    "DELAY": """
SCENARIO delay_one
  Pkts: (udp_pkt, node1, node2, RECV)
  ((Pkts = 3)) >> DELAY udp_pkt, node1, node2, RECV, 35;
END
""",
    "REORDER": """
SCENARIO reorder_three
  Pkts: (udp_pkt, node1, node2, RECV)
  ((Pkts >= 3) && (Pkts <= 5)) >> REORDER udp_pkt, node1, node2, RECV, 3, [3 2 1];
END
""",
    "DUP": """
SCENARIO dup_one
  Pkts: (udp_pkt, node1, node2, RECV)
  ((Pkts = 4)) >> DUP udp_pkt, node1, node2, RECV;
END
""",
    "MODIFY": """
SCENARIO modify_one
  Pkts: (udp_pkt, node1, node2, RECV)
  ((Pkts = 2)) >> MODIFY udp_pkt, node1, node2, RECV;
END
""",
}

PORT = 0x1389  # 5001
N_PACKETS = 6


def run(name: str, scenario: str) -> None:
    testbed = Testbed(seed=99)
    node1 = testbed.add_host("node1")
    node2 = testbed.add_host("node2")
    testbed.add_switch("sw0")
    testbed.connect("sw0", node1, node2)
    testbed.install_virtualwire(control="node1", telemetry=True)
    script = HEADER.format(node_table=testbed.node_table_fsl()) + scenario

    arrivals = []

    def workload() -> None:
        socket = node2.udp.bind(PORT)
        socket.on_receive = lambda payload, ip, port: arrivals.append(
            (testbed.sim.now, payload[0])
        )
        sender = node1.udp.bind(0)
        for seq in range(1, N_PACKETS + 1):
            # One datagram per millisecond, payload tagged with its number.
            testbed.sim.after(
                seq * 1_000_000,
                lambda s=seq: sender.sendto(bytes([s]) + bytes(63), node2.ip, PORT),
                "showcase:send",
            )

    report = testbed.run_scenario(script, workload=workload, max_time=seconds(10))
    order = [seq for _, seq in arrivals]
    gaps = [
        f"{(t2 - t1) / 1e6:.1f}ms"
        for (t1, _), (t2, _) in zip(arrivals, arrivals[1:])
    ]
    stats = report.engine_stats["node2"]
    print(f"--- {name} ---")
    print(f"  sent 1..{N_PACKETS}, received order: {order}")
    print(f"  inter-arrival gaps: {gaps}")
    print(
        "  engine: "
        f"delayed={stats['packets_delayed']} reordered={stats['packets_reordered']} "
        f"duplicated={stats['packets_duplicated']} modified={stats['packets_modified']}"
    )
    if name == "MODIFY":
        print(
            "  drops at node2 — "
            f"IP checksum: {node2.ip_layer.checksum_drops}, "
            f"UDP checksum: {node2.udp.checksum_drops}, "
            f"misaddressed: {node2.ip_layer.misaddressed_drops} "
            "(random corruption lands somewhere in IP/UDP/payload)"
        )
    print()


def main() -> None:
    for name, scenario in SCENARIOS.items():
        run(name, scenario)
    print("fault showcase complete.")


if __name__ == "__main__":
    main()

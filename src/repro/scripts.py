"""The paper's FSL scripts, as reusable templates.

These are the exact scenarios of the paper's Figs 5 and 6, parameterised
only by the NODE_TABLE section (the testbed knows the generated addresses)
and, for convenience in tests, by numeric thresholds.

Two corrections to the Fig 5 listing as printed (the published script is
OCR-degraded — line numbers repeat) are documented in DESIGN.md §2.3 and
applied here:

* ``CanTx`` is initialised to 1, the initial congestion window — starting
  it at 0 would flag the very first data packet of any correct
  implementation;
* the slow-start rule credits ``CanTx`` by **2** per ACK (one in-flight
  slot freed plus one window-growth slot), which makes the script's credit
  model exactly track the algorithm the paper's §6.1 text describes.  With
  a +1 credit, a correct implementation is flagged on the second packet of
  every slow-start round.
"""

from __future__ import annotations

#: The paper's Fig 2 filter table (TCP over the 0x6000 -> 0x4000
#: connection), including the VAR-based retransmission detectors.
TCP_FILTER_TABLE = """\
VAR SeqNoData, SeqNoAck;
FILTER_TABLE
  TCP_data_rt1: (34 2 0x6000), (36 2 0x4000), (38 4 SeqNoData), (47 1 0x10 0x10)
  TCP_ack_rt1:  (34 2 0x4000), (36 2 0x6000), (42 4 SeqNoAck), (47 1 0x10 0x10)
  TCP_syn:      (34 2 0x6000), (36 2 0x4000), (47 1 0x02 0x02)
  TCP_synack:   (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
  TCP_data:     (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
  TCP_ack:      (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
"""

#: Fig 5: verify the slow-start -> congestion-avoidance switch after one
#: dropped SYNACK forces ssthresh down to 2.
_TCP_SCENARIO = """\
SCENARIO TCP_SS_CA_algo
  SYNACK:   (TCP_synack, node2, node1, RECV)
  SA_ACK:   (TCP_data, node1, node2, SEND)
  DATA:     (TCP_data, node1, node2, SEND)
  ACK:      (TCP_ack, node2, node1, RECV)
  CWND:     (node1)
  CanTx:    (node1)
  CCNT:     (node1)
  SSTHRESH: (node1)
  (TRUE) >> ENABLE_CNTR( SYNACK );
       ENABLE_CNTR( SA_ACK );
       ENABLE_CNTR( ACK );
       ASSIGN_CNTR( CWND, 1 );
       ASSIGN_CNTR( CanTx, 1 );
       ASSIGN_CNTR( SSTHRESH, 2 );
  /* Fault injection: drop one SYNACK at the receiver node */
  ((SYNACK > 0) && (SYNACK < 2)) >> DROP TCP_synack, node2, node1, RECV;
  /*** ANALYSIS SCRIPT ***/
  /* The ACK in response to the SYNACK matches TCP_data */
  ((SA_ACK = 1)) >> ENABLE_CNTR( DATA ); DISABLE_CNTR( SA_ACK );
  ((DATA = 1)) >> RESET_CNTR( DATA ); DECR_CNTR( CanTx, 1 );
  /* slow-start: an ACK frees one slot and grows the window by one */
  ((CWND <= SSTHRESH) && (ACK = 1)) >> RESET_CNTR( ACK );
       INCR_CNTR( CWND, 1 ); INCR_CNTR( CanTx, 2 );
  /* congestion avoidance */
  ((CWND > SSTHRESH) && (ACK = 1)) >> RESET_CNTR( ACK );
       INCR_CNTR( CanTx, 1 ); INCR_CNTR( CCNT, 1 );
  ((CWND > SSTHRESH) && (CCNT > CWND)) >> RESET_CNTR( CCNT );
       INCR_CNTR( CWND, 1 ); INCR_CNTR( CanTx, 1 );
  /* Number of data packets that can be sent out is never negative */
  ((CanTx < 0)) >> FLAG_ERROR;
END
"""


def tcp_congestion_script(node_table_fsl: str) -> str:
    """The complete Fig 5 script for a testbed's node table."""
    return TCP_FILTER_TABLE + node_table_fsl + "\n" + _TCP_SCENARIO


#: Fig 6 filter table: Rether control packets plus the real-time TCP flow.
RETHER_FILTER_TABLE = """\
FILTER_TABLE
  tr_token:     (12 2 0x9900), (14 2 0x0001)
  tr_token_ack: (12 2 0x9900), (14 2 0x0010)
  TCP_data:     (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
"""

_RETHER_SCENARIO = """\
SCENARIO Test_Single_Node_Failure 1sec
  CNT_DATA:    (TCP_data, node1, node4, RECV)
  TokensTo2:   (tr_token, node1, node2, RECV)
  TokensFrom2: (tr_token, node2, node3, SEND)
  TokensTo4:   (tr_token, node2, node4, RECV)
  TokensTo1:   (tr_token, node4, node1, RECV)
  ((CNT_DATA > {data_threshold})) >> ENABLE_CNTR( TokensTo2 );
  ((TokensTo2 = 1)) >> FAIL( node3 );
        ENABLE_CNTR( TokensFrom2 );
        RESET_CNTR( TokensTo2 );
  ((TokensFrom2 = 3)) >> ENABLE_CNTR( TokensTo4 );
  ((TokensTo4 = 1)) >> ENABLE_CNTR( TokensTo1 );
  /*** ANALYSIS SCRIPT ***/
  ((TokensFrom2 > 3)) >> FLAG_ERROR;
  ((TokensTo2 = 1) && (TokensTo4 = 1) && (TokensTo1 = 1)) >> STOP;
END
"""


def rether_failover_script(node_table_fsl: str, data_threshold: int = 1000) -> str:
    """The complete Fig 6 script.

    *data_threshold* is the number of TCP data packets that must reach
    node4 before node3 is crashed (1000 in the paper; tests lower it to
    keep runs short).
    """
    return (
        RETHER_FILTER_TABLE
        + node_table_fsl
        + "\n"
        + _RETHER_SCENARIO.format(data_threshold=data_threshold)
    )


#: Extended Fig 6 (docs/NODE_LIFECYCLE.md): the failed node does not stay
#: dead — it is crashed with amnesia, rebooted after a delay, re-synced by
#: the control node, and must carry the token again before STOP.
_CRASH_RESTART_SCENARIO = """\
SCENARIO Crash_Restart_Rejoin 1sec
  CNT_DATA:    (TCP_data, node1, node4, RECV)
  TokensTo2:   (tr_token, node1, node2, RECV)
  TokensFrom2: (tr_token, node2, node3, SEND)
  TokensTo4:   (tr_token, node2, node4, RECV)
  Healed:      (tr_token, node3, node4, RECV)
  ((CNT_DATA > {data_threshold})) >> ENABLE_CNTR( TokensTo2 );
  /* Fault injection: crash node3 with amnesia, reboot it later.  The
     trigger counter is reset AND disabled: tokens keep circling the
     healed ring, and a re-armed trigger would re-crash the node the
     moment it rejoined. */
  ((TokensTo2 = 1)) >> CRASH( node3 );
        RESTART( node3, {restart_delay_ms} );
        ENABLE_CNTR( TokensFrom2 );
        RESET_CNTR( TokensTo2 );
        DISABLE_CNTR( TokensTo2 );
  /*** ANALYSIS SCRIPT ***/
  /* Ring heals around the dead node: three handoff attempts, then bypass */
  ((TokensFrom2 = 3)) >> ENABLE_CNTR( TokensTo4 );
  ((TokensTo4 = 1)) >> DISABLE_CNTR( TokensFrom2 ); ENABLE_CNTR( Healed );
  /* The rebooted node carries the token again: full recovery */
  ((Healed = 1)) >> STOP;
  ((TokensFrom2 > 3)) >> FLAG_ERROR;
END
"""


#: How long after its CRASH the extended Fig 6 script RESTARTs the node.
RESTART_DELAY_MS = 300


def rether_crash_restart_script(node_table_fsl: str, data_threshold: int = 1000) -> str:
    """The extended Fig 6 script: crash, reboot, re-sync, rejoin.

    Like :func:`rether_failover_script` up to the node loss, but the node
    is CRASHed (soft state destroyed, not just the NIC) and RESTARTed
    :data:`RESTART_DELAY_MS` later.  Success requires the healed ring *and* the
    rebooted node forwarding the token again (``Healed``); the scenario
    fails if node2 hands the token to the dead node more than its three
    eviction attempts.
    """
    return (
        RETHER_FILTER_TABLE
        + node_table_fsl
        + "\n"
        + _CRASH_RESTART_SCENARIO.format(
            data_threshold=data_threshold, restart_delay_ms=RESTART_DELAY_MS
        )
    )


def canonical_node_table(n_hosts: int) -> str:
    """The NODE_TABLE a default :class:`repro.Testbed` generates for hosts

    named ``node1..nodeN`` added in order — the binding the shipped
    ``scenarios/*.fsl`` files embed.
    """
    lines = ["NODE_TABLE"]
    for index in range(1, n_hosts + 1):
        lines.append(
            f"  node{index} 02:00:00:00:00:{index:02x} 192.168.1.{index}"
        )
    lines.append("END")
    return "\n".join(lines)


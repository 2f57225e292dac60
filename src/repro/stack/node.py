"""A testbed host: NIC + frame chain + IP/UDP/TCP stack.

The host is the unit the paper's Node Table names (hostname, MAC address,
IP address).  ``FAIL(node)`` faults call :meth:`Host.fail`, which models a
crash: the NIC goes down and the alive flag flips, so the node neither
sends nor receives — but no graceful shutdown happens anywhere, exactly
like pulling the power.
"""

from __future__ import annotations

from typing import Optional, Union

from ..net.addresses import IpAddress, MacAddress
from ..net.nic import Nic
from ..sim import Simulator
from .costs import CostModel
from .driver import DriverLayer
from .layers import LayerChain
from .ipstack import IpLayer
from .udp_stack import UdpLayer


class Host:
    """One testbed node with a full protocol stack."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: Union[str, MacAddress],
        ip: Union[str, IpAddress],
        costs: Optional[CostModel] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.costs = costs if costs is not None else CostModel()
        self.is_alive = True
        self.nic = Nic(sim, mac, name=f"{name}-eth0")
        self.chain = LayerChain(sim, self)
        self.driver = DriverLayer(sim, self.nic, self.costs)
        self.chain.set_bottom(self.driver)
        self.ip_layer = IpLayer(
            sim, self.chain.demux, self.nic.mac, IpAddress(ip), self.costs
        )
        self.udp = UdpLayer(sim, self.ip_layer, self.costs)
        # Local import: repro.tcp builds on repro.stack, not vice versa.
        from ..tcp.layer import TcpLayer

        self.tcp = TcpLayer(sim, self, self.costs)
        self.rether = None  # installed on demand by repro.rether
        #: repro.analysis NodeMetrics when the testbed enabled telemetry;
        #: layers check it in attached() to register with it.
        self.metrics = None
        self._awaiting_resync = False  # set by reboot(), cleared once re-armed

    # -- identity -------------------------------------------------------------

    @property
    def mac(self) -> MacAddress:
        return self.nic.mac

    @property
    def ip(self) -> IpAddress:
        return self.ip_layer.local_ip

    # -- configuration ----------------------------------------------------------

    def add_neighbor(self, ip: Union[str, IpAddress], mac: Union[str, MacAddress]) -> None:
        """Teach this host another station's IP-to-MAC binding."""
        self.ip_layer.add_neighbor(ip, mac)

    def enable_metrics(self, node_metrics) -> None:
        """Arm telemetry: layers spliced later pick the registry up in
        ``attached()``; the driver (built before metrics existed) is
        registered here."""
        self.metrics = node_metrics
        node_metrics.read("driver", self.driver, "tx_frames", "rx_frames")

    # -- fault hooks ------------------------------------------------------------

    def fail(self) -> None:
        """Crash the node (the FAIL(node) fault primitive)."""
        self.is_alive = False
        self.nic.bring_down()

    # -- crash/restart lifecycle (the CRASH/RESTART fault primitives) -----------

    def crash(self) -> None:
        """Crash with amnesia: NIC down plus total loss of soft state.

        Unlike :meth:`fail` (power cut observed only from outside), this
        also destroys everything a real reboot would lose — TCP
        connections and socket buffers, UDP bindings, and every spliced
        layer's session state via its ``on_host_crash`` hook.
        """
        self.is_alive = False
        self.nic.bring_down()
        self._wipe_soft_state()

    def reboot(self) -> None:
        """Boot the crashed node back up into a blank-state machine.

        Re-runs the teardown first so a node taken down with plain
        :meth:`fail` still comes up with amnesia, and drops every
        per-frame deferral the last life left in the event queue (a frame
        parked in ``tcp:tx``, ``ip:tx``, a driver queue, ... would
        otherwise reach the wire after a fast RESTART).  Then it raises
        the NIC and marks the host as awaiting resynchronisation: layers
        get their ``on_host_resynced`` hook (and resume protocol work)
        only once :meth:`on_engine_started` reports the re-shipped fault
        tables are armed.

        The discard holds only under one rule: every per-frame deferral
        of this host is a bound method of its IP, TCP or UDP layer or of
        a chain layer (the driver and the demux included), scheduled
        with the frame in ``args``.  A closure or a ``partial`` escapes
        it.  The one exception is ``udp:rx``, whose socket drops the
        datagram itself once closed.  The NIC is not an owner: the
        medium's deliveries to it are frames already on the wire, and
        they still arrive.
        """
        self._wipe_soft_state()
        self.sim.queue.discard([self.ip_layer, self.tcp, self.udp, *self.chain.layers])
        self.is_alive = True
        self.nic.bring_up()
        self._awaiting_resync = True
        for layer in self.chain.layers:
            layer.on_host_reboot()

    def on_peer_reboot(self, mac: MacAddress) -> None:
        """A peer crashed and rebooted: layers forget its session state."""
        for layer in self.chain.layers:
            layer.on_peer_reboot(mac)

    def on_engine_started(self) -> None:
        """The local engine re-armed its tables after a reboot."""
        if self._awaiting_resync:
            self._awaiting_resync = False
            for layer in self.chain.layers:
                layer.on_host_resynced()

    def _wipe_soft_state(self) -> None:
        self.tcp.crash()
        self.udp.crash()
        for layer in self.chain.layers:
            layer.on_host_crash()

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "FAILED"
        return f"Host({self.name}, {self.mac}, {self.ip}, {state})"

"""Topology builder: declarative wiring of NICs onto media.

The testbeds in the paper are tiny (2–4 hosts on one switch or bus), but the
builder supports arbitrary LANs: any number of switches, hubs and
point-to-point links, with validation that every NIC ends up attached
exactly once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..errors import TopologyError
from ..sim import Simulator
from .link import Hub, Medium, PointToPointLink, SharedBus
from .nic import Nic
from .switch import LearningSwitch


class Topology:
    """Owns the media of a simulated LAN and wires NICs into them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._media: Dict[str, Medium] = {}

    # -- media factories ----------------------------------------------------

    def add_link(self, name: str, **kwargs) -> PointToPointLink:
        """Create a named point-to-point link."""
        return self._register(PointToPointLink(self.sim, name, **kwargs))

    def add_switch(self, name: str, **kwargs) -> LearningSwitch:
        """Create a named learning switch."""
        return self._register(LearningSwitch(self.sim, name, **kwargs))

    def add_hub(self, name: str, **kwargs) -> Hub:
        """Create a named hub (shared collision domain)."""
        return self._register(Hub(self.sim, name, **kwargs))

    def add_bus(self, name: str, **kwargs) -> SharedBus:
        """Create a named shared bus (what Rether regulates)."""
        return self._register(SharedBus(self.sim, name, **kwargs))

    def _register(self, medium: Medium) -> Medium:
        if medium.name in self._media:
            raise TopologyError(f"duplicate medium name: {medium.name!r}")
        self._media[medium.name] = medium
        return medium

    # -- wiring ---------------------------------------------------------------

    def connect(self, medium_name: str, *nics: Nic) -> None:
        """Attach each NIC to the named medium."""
        medium = self.medium(medium_name)
        for nic in nics:
            medium.attach(nic)

    def medium(self, name: str) -> Medium:
        """Look up a medium by name."""
        try:
            return self._media[name]
        except KeyError:
            raise TopologyError(f"unknown medium: {name!r}") from None

    def validate(self, nics: Optional[Iterable[Nic]] = None) -> None:
        """Check structural soundness; raises :class:`TopologyError` if broken.

        * every point-to-point link has exactly two stations;
        * every supplied NIC is attached to some medium.
        """
        for medium in self._media.values():
            if isinstance(medium, PointToPointLink) and len(medium.nics) != 2:
                raise TopologyError(
                    f"link {medium.name!r} has {len(medium.nics)} station(s), needs 2"
                )
        if nics is not None:
            for nic in nics:
                if nic.medium is None:
                    raise TopologyError(f"{nic.name} is not attached to any medium")

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{name}({type(m).__name__}, {len(m.nics)} ports)"
            for name, m in self._media.items()
        )
        return f"Topology({kinds})"

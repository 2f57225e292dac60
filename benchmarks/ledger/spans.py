"""Span tracing from outside the product, and the cProfile cross-check.

:class:`Tracer` patches wrappers onto the product's public seams (class
attributes, plus the handlers handed to the registration seams), records
one span per call — (layer, start, end, parent) in four parallel arrays —
and restores the original functions on :meth:`Tracer.remove`.  Nothing
under ``src/`` knows it exists.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  A callback scheduled through ``Simulator.at/after`` runs as
a span of the layer that scheduled it, so timers and deferrals are charged
to their owner and ``sim`` keeps only the event loop and the heap; a
callback scheduled from outside any span is charged to the layer of the
module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from schema import LAYERS

_LAYER_ID = {name: index for index, name in enumerate(LAYERS)}

#: module prefix -> layer, longest prefix wins.  Codec modules
#: (net.fastpath/bytesutil/ip/tcp_segment/frame/addresses, core.tables) are
#: deliberately absent: they are module-level helpers and stay inside their
#: callers' self time, in the spans and in the profile cross-check alike.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.net.nic", "net.medium"),
    ("repro.net.link", "net.medium"),
    ("repro.net.switch", "net.medium"),
    ("repro.net.topology", "net.medium"),
    ("repro.stack.driver", "stack.driver"),
    ("repro.rll", "rll"),
    ("repro.core.engine", "core.engine"),
    ("repro.core.faults", "core.engine"),
    ("repro.core.classify", "core.classify"),
    ("repro.core.runtime", "core.runtime"),
    ("repro.core.reliable", "core.control"),
    ("repro.core.frontend", "core.control"),
    ("repro.core.control", "core.control"),
    ("repro.core.report", "core.control"),
    ("repro.core.testbed", "core.testbed"),
    ("repro.stack.node", "core.testbed"),
    ("repro.stack.layers", "stack.ip"),
    ("repro.stack.ipstack", "stack.ip"),
    ("repro.tcp", "tcp"),
    ("repro.stack.udp_stack", "stack.udp"),
    ("repro.rether", "rether"),
    ("repro.workloads", "workloads"),
)


#: modules defining FrameLayer and Medium subclasses the tracer must find.
_SUBCLASS_MODULES = (
    "repro.core.chaos",
    "repro.core.engine",
    "repro.net.switch",
    "repro.rll.layer",
    "repro.stack.driver",
    "repro.trace.recorder",
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning *module* (a dotted name), or ``None``."""
    if not module:
        return None
    best: Optional[Tuple[str, str]] = None
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def aggregate(
    layer: Sequence[int], parent: Sequence[int], start: Sequence[int], end: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Per-layer (self_ns, calls) of a span forest.

    A child is always recorded after its parent, so one reverse pass has
    every span's child total ready when the span itself is reached.
    """
    self_ns = [0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    covered = [0] * len(start)
    for index in range(len(start) - 1, -1, -1):
        duration = end[index] - start[index]
        self_ns[layer[index]] += duration - covered[index]
        calls[layer[index]] += 1
        if parent[index] >= 0:
            covered[parent[index]] += duration
    return self_ns, calls


class Tracer:
    """Records spans at the public seams between :meth:`install` and
    :meth:`remove`; also collects every :class:`Testbed` built meanwhile so
    exact counters can be read off the program afterwards."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        #: index of the innermost open span, -1 outside any.
        self._open = [-1]
        self._patches: List[Tuple[type, str, object]] = []
        self._module_layer: Dict[Optional[str], Optional[int]] = {}
        self.testbeds: list = []

    # -- span primitives ------------------------------------------------------

    def span(self, layer_id: int, fn: Callable) -> Callable:
        """*fn* wrapped so each call is one span of *layer_id*."""
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        opened, now = self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(opened[0])
            ends.append(0)
            opened[0] = index
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                opened[0] = parents[index]

        return traced

    def layer_of(self, fn: object) -> Optional[int]:
        """Layer id of the module defining callable *fn*, or ``None``."""
        module = getattr(fn, "__module__", None)
        try:
            return self._module_layer[module]
        except KeyError:
            name = layer_of_module(module)
            found = None if name is None else _LAYER_ID[name]
            self._module_layer[module] = found
            return found

    def totals(self) -> Tuple[List[int], List[int]]:
        return aggregate(self.layer, self.parent, self.start, self.end)

    # -- wrappers for the three kinds of seam ------------------------------------

    def _scheduling(self, fn: Callable) -> Callable:
        """``Simulator.at/after``: a ``sim`` span around the heap push, and the
        callback deferred as a span of the layer that scheduled it."""
        push = self.span(_LAYER_ID["sim"], fn)
        layers, opened = self.layer, self._open

        def schedule(sim, when, callback, *args, **kwargs):
            owner = layers[opened[0]] if opened[0] >= 0 else self.layer_of(callback)
            if owner is not None:
                callback = self.span(owner, callback)
            return push(sim, when, callback, *args, **kwargs)

        return schedule

    def _registering(self, fn: Callable) -> Callable:
        """A registration seam whose last argument is a handler: the handler
        becomes a span of the layer whose module defines it."""

        def register(owner, *args):
            handler = args[-1]
            layer_id = self.layer_of(handler)
            if layer_id is not None:
                args = args[:-1] + (self.span(layer_id, handler),)
            return fn(owner, *args)

        return register

    def _collecting(self, fn: Callable) -> Callable:
        def init(testbed, *args, **kwargs):
            self.testbeds.append(testbed)
            return fn(testbed, *args, **kwargs)

        return init

    # -- installation ----------------------------------------------------------------

    def _patch(self, owner: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]
        replacement = functools.wraps(original)(make(original))
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _patch_spans(self, owner: type, names) -> None:
        layer = layer_of_module(owner.__module__)
        if layer is None:
            return
        layer_id = _LAYER_ID[layer]
        for name in names:
            if isinstance(owner.__dict__.get(name), FunctionType):
                self._patch(owner, name, lambda fn: self.span(layer_id, fn))

    def install(self) -> None:
        """Patch every seam.  Call :meth:`remove` in a ``finally``."""
        from repro.core import classify, frontend, reliable, runtime, testbed
        from repro.net import link, nic
        from repro.rether import layer as rether_layer
        from repro.sim import simulator
        from repro.stack import ipstack, layers, udp_stack
        from repro.tcp import connection, layer as tcp_layer
        from repro.workloads import bulk, echo, onoff

        for module in _SUBCLASS_MODULES:  # so __subclasses__() below sees them
            importlib.import_module(module)

        sim = simulator.Simulator
        self._patch_spans(sim, ("step", "run", "run_until", "cancel"))
        self._patch(sim, "at", self._scheduling)
        self._patch(sim, "after", self._scheduling)

        for cls in _subclasses(layers.FrameLayer):
            self._patch_spans(cls, ("on_send", "on_receive"))
        self._patch(layers.EthertypeDemux, "register", self._registering)
        self._patch(ipstack.IpLayer, "register_protocol", self._registering)
        self._patch(nic.Nic, "set_receive_handler", self._registering)

        self._patch_spans(nic.Nic, ("transmit", "deliver"))
        for cls in (link.Medium, *_subclasses(link.Medium)):
            self._patch_spans(cls, ("transmit",))
        self._patch_spans(ipstack.IpLayer, ("send",))
        self._patch_spans(tcp_layer.TcpLayer, ("send_segment",))
        self._patch_spans(connection.TcpConnection, ("send", "handle_segment"))
        self._patch_spans(udp_stack.UdpLayer, ("send_datagram",))
        self._patch_spans(udp_stack.UdpSocket, ("deliver",))
        for cls in (classify.ClassifierBase, *_subclasses(classify.ClassifierBase)):
            self._patch_spans(cls, ("classify",))
        self._patch_spans(
            runtime.NodeRuntime,
            ("start", "on_classified_packet", "armed_faults", "on_counter_update", "on_term_status"),
        )
        self._patch_spans(reliable.ReliableControlPlane, ("send", "on_frame"))
        self._patch_spans(frontend.Frontend, _public(frontend.Frontend))
        self._patch_spans(rether_layer.RetherLayer, ("start", "rejoin"))
        for module in (bulk, echo, onoff):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    self._patch_spans(cls, ["__init__", *_callbacks(cls)])
        self._patch_spans(testbed.Testbed, [n for n in _public(testbed.Testbed) if n != "host"])
        self._patch(testbed.Testbed, "__init__", self._collecting)

    def remove(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _public(cls: type) -> List[str]:
    return [n for n, v in vars(cls).items() if isinstance(v, FunctionType) and not n.startswith("_")]


def _callbacks(cls: type) -> List[str]:
    """Every plain method of a workload class: its underscore methods are the
    application callbacks it hands to the stack, so they are its seam."""
    return [n for n, v in vars(cls).items() if isinstance(v, FunctionType) and not n.startswith("__")]


# -- the cProfile cross-check ---------------------------------------------------------


def _module_of(filename: str) -> Optional[str]:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0 or not filename.endswith(".py"):
        return None
    return "repro." + filename[at + len(marker): -3].replace("/", ".")


def profile_shares(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Share of total ``tottime`` per layer from a ``pstats`` table.

    A function in a layer's modules is charged to that layer.  Any other
    function (codec helpers, builtins) is charged to its callers, edge by
    edge and transitively — the same rule the spans follow, where helper
    time stays inside the caller's self time.  What reaches no layer (the
    harness itself) is left unattributed.
    """
    resolved: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, path: frozenset) -> Dict[str, float]:
        if func in resolved:
            return resolved[func]
        layer = layer_of_module(_module_of(func[0]))
        if layer is not None:
            resolved[func] = {layer: 1.0}
            return resolved[func]
        if func in path or func not in stats:
            return {}  # a cycle of helpers, or a caller the profile never saw
        callers = stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        spread: Dict[str, float] = {}
        for caller, edge in callers.items():
            if edge[2] > 0:
                for name, weight in owners(caller, path | {func}).items():
                    spread[name] = spread.get(name, 0.0) + weight * edge[2] / total
        if not path:
            resolved[func] = spread  # only a root query saw no cut cycle
        return spread

    total_time = sum(entry[2] for entry in stats.values())
    shares = {name: 0.0 for name in LAYERS}
    if total_time <= 0:
        return shares
    for func, entry in stats.items():
        for name, weight in owners(func, frozenset()).items():
            shares[name] += entry[2] * weight / total_time
    return shares

"""Per-node, per-layer metrics for the Fault Analysis Engine.

The paper's FAE is an *analysis* engine: it does not merely inject faults,
it quantifies how the protocol under test reacted (§1, §3).  This module
supplies the quantitative half of that story — a registry of counters,
gauges and virtual-time histograms that the instrumented layers (driver,
TCP, RLL, Rether, the engine itself) feed while a scenario runs.

Design rules, shared with :class:`repro.core.audit.AuditLog`:

* **Disabled by default, free when disabled.**  Every instrumented object
  pre-resolves its metric handles to ``None`` unless the testbed was built
  with ``install_virtualwire(telemetry=True)``; the hot path is a single
  ``if self._m_x is not None`` check.
* **One count per event.**  A count a layer already keeps as an
  attribute (``DriverLayer.tx_frames``, ``RllLayer.retransmissions``, …)
  is not counted a second time: the layer registers itself with
  :meth:`NodeMetrics.read` and the snapshot reads the attribute.
* **Canonical snapshots.**  :meth:`MetricsRegistry.snapshot` returns plain
  builtins with every mapping key sorted, so snapshots ship verbatim in
  sweep payloads and serialise byte-identically on any backend.
* **Associative merging.**  Sweep campaigns aggregate per-row snapshots
  with :func:`merge_snapshots`; the merge is associative (and commutative
  for counters/histograms), so the fold order — serial, pooled, sharded —
  cannot change the aggregate.

Histograms bucket by bit length (bucket ``i`` holds values ``v`` with
``v.bit_length() == i``, i.e. ``[2**(i-1), 2**i)``), the right shape for
virtual-time durations spanning nanoseconds to minutes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

MetricValue = Union["Counter", "Gauge", "Histogram"]


class Counter:
    """A monotonically increasing count; snapshots to a plain int."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A sampled level (queue depth, cwnd) with min/max/last tracking.

    Merging two gauge snapshots keeps ``min`` of mins, ``max`` of maxes,
    sums ``samples`` and takes ``max`` of lasts — the only last-combiner
    that is associative *and* commutative, documented so aggregate readers
    know ``last`` means "largest final level observed by any row".
    """

    __slots__ = ("last", "min", "max", "samples")

    def __init__(self) -> None:
        self.last = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.samples = 0

    def set(self, value: int) -> None:
        self.last = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, int]:
        return {
            "type": "gauge",
            "last": self.last,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "samples": self.samples,
        }


class Histogram:
    """Log2-bucketed distribution of non-negative integer samples."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        if value < 0:
            value = 0
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = value.bit_length()
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "buckets": {
                str(index): self.buckets[index] for index in sorted(self.buckets)
            },
        }


class NodeMetrics:
    """One node's metric namespace; handles are get-or-create."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._metrics: Dict[str, MetricValue] = {}
        #: ``layer.attribute`` -> every object whose attribute it sums.
        self._sources: Dict[str, List[object]] = {}

    def _get(self, layer: str, name: str, factory) -> MetricValue:
        key = f"{layer}.{name}"
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {key!r} on {self.node} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, layer: str, name: str) -> Counter:
        return self._get(layer, name, Counter)

    def gauge(self, layer: str, name: str) -> Gauge:
        return self._get(layer, name, Gauge)

    def histogram(self, layer: str, name: str) -> Histogram:
        return self._get(layer, name, Histogram)

    def read(self, layer: str, source: object, *attributes: str) -> None:
        """Report each of *source*'s integer *attributes* as the counter
        ``layer.attribute``, read at snapshot time.  Every object that
        registers the same name adds to it (a node's TCP connections)."""
        for attribute in attributes:
            self._sources.setdefault(f"{layer}.{attribute}", []).append(source)

    def snapshot(self) -> Dict[str, object]:
        values = {key: metric.snapshot() for key, metric in self._metrics.items()}
        for key, sources in self._sources.items():
            attribute = key.partition(".")[2]
            values[key] = sum(getattr(source, attribute) for source in sources)
        return dict(sorted(values.items()))


class MetricsRegistry:
    """The testbed-wide registry: one :class:`NodeMetrics` per node."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeMetrics] = {}

    def node(self, name: str) -> NodeMetrics:
        metrics = self._nodes.get(name)
        if metrics is None:
            metrics = NodeMetrics(name)
            self._nodes[name] = metrics
        return metrics

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Canonical, JSON-able dump: ``{node: {layer.name: value}}``."""
        return {
            name: self._nodes[name].snapshot() for name in sorted(self._nodes)
        }


# ---------------------------------------------------------------------------
# Snapshot aggregation (sweep rows)
# ---------------------------------------------------------------------------


def merge_values(a: object, b: object) -> object:
    """Merge two snapshot values of the same metric (associative)."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b  # counters
    if not (isinstance(a, dict) and isinstance(b, dict)):
        raise TypeError(f"cannot merge metric values {a!r} and {b!r}")
    kind_a, kind_b = a.get("type"), b.get("type")
    if kind_a != kind_b:
        raise TypeError(f"cannot merge metric kinds {kind_a!r} and {kind_b!r}")
    if kind_a == "gauge":
        return {
            "type": "gauge",
            "last": max(a["last"], b["last"]),
            "min": _merge_extreme(a, b, "min", "samples", min),
            "max": _merge_extreme(a, b, "max", "samples", max),
            "samples": a["samples"] + b["samples"],
        }
    if kind_a == "histogram":
        buckets: Dict[str, int] = dict(a["buckets"])
        for index, count in b["buckets"].items():
            buckets[index] = buckets.get(index, 0) + count
        return {
            "type": "histogram",
            "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"],
            "min": _merge_extreme(a, b, "min", "count", min),
            "max": _merge_extreme(a, b, "max", "count", max),
            "buckets": {key: buckets[key] for key in sorted(buckets, key=int)},
        }
    raise TypeError(f"unknown metric kind {kind_a!r}")


def _merge_extreme(a: Dict, b: Dict, field: str, weight: str, pick) -> int:
    """min/max of two snapshots, ignoring the empty side (weight == 0)."""
    if a[weight] == 0:
        return b[field]
    if b[weight] == 0:
        return a[field]
    return pick(a[field], b[field])


def merge_snapshots(
    snapshots: List[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Fold per-row registry snapshots into one aggregate.

    Accepts the ``{node: {metric: value}}`` shape produced by
    :meth:`MetricsRegistry.snapshot`; nodes and metrics missing from some
    rows merge as identity.  The result is canonical (sorted keys).
    """
    merged: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for node, metrics in snapshot.items():
            into = merged.setdefault(node, {})
            for key, value in metrics.items():
                if key in into:
                    into[key] = merge_values(into[key], value)
                else:
                    into[key] = value
    return {
        node: {key: merged[node][key] for key in sorted(merged[node])}
        for node in sorted(merged)
    }


def render_metrics(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Human-readable table of a registry snapshot (the CLI's view)."""
    lines: List[str] = []
    for node in sorted(snapshot):
        lines.append(f"{node}:")
        metrics = snapshot[node]
        for key in sorted(metrics):
            value = metrics[key]
            if isinstance(value, int):
                lines.append(f"  {key:<32} {value}")
            elif value.get("type") == "gauge":
                lines.append(
                    f"  {key:<32} last={value['last']} min={value['min']} "
                    f"max={value['max']} samples={value['samples']}"
                )
            else:
                mean = value["sum"] // value["count"] if value["count"] else 0
                lines.append(
                    f"  {key:<32} count={value['count']} mean={mean} "
                    f"min={value['min']} max={value['max']}"
                )
    return "\n".join(lines)

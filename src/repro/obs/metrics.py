"""Process-safe metrics registry: counters, gauges, histograms.

Each process owns one :class:`MetricsRegistry`, plus one per open
:func:`repro.obs.metrics_scope` (workers get a fresh one from the pool
initializer); instruments are thread-safe within a process
and cross the pool boundary as plain-dict snapshots that merge
*commutatively* — counters and histogram bins sum, gauges take the max —
so the aggregate is identical regardless of worker scheduling.

The registry is the *runtime* layer of the observability design: cache
hit rates, models built, worker utilisation — quantities that legitimately
vary with ``--jobs`` and cache warmth.  Scheduling-invariant counts
travel on spans instead (:mod:`repro.obs.spans`) and are aggregated into
the deterministic block of :class:`repro.obs.stats.PipelineStats`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (values above fall in +Inf).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Counter:
    """Monotonically increasing count; merges by summation."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, value: float = 1) -> None:
        self.value += value


class Gauge:
    """High-water-mark gauge; merges by maximum.

    The max-merge is what keeps multi-worker aggregation well-defined:
    "largest Büchi product seen" means the same thing however the
    properties were scheduled.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def record(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram; merges by per-bucket summation."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def to_dict(self) -> Dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "total": self.total, "count": self.count}


class MetricsRegistry:
    """Named instruments behind one lock, snapshot/merge-friendly."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS)
            return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-dict copy of every instrument (pickles cheaply)."""
        with self._lock:
            return {
                "counters": {name: c.value
                             for name, c in self._counters.items()},
                "gauges": {name: g.value
                           for name, g in self._gauges.items()},
                "histograms": {name: h.to_dict()
                               for name, h in self._histograms.items()},
            }

    def drain(self) -> Dict:
        """Snapshot then reset — how workers ship per-group deltas."""
        with self._lock:
            payload = {
                "counters": {name: c.value
                             for name, c in self._counters.items()},
                "gauges": {name: g.value
                           for name, g in self._gauges.items()},
                "histograms": {name: h.to_dict()
                               for name, h in self._histograms.items()},
            }
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return payload

    def merge(self, payload: Dict) -> None:
        """Fold a snapshot in: counters/bins sum, gauges take the max."""
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name).record(value)
        for name, data in payload.get("histograms", {}).items():
            histogram = self.histogram(name, data["buckets"])
            if tuple(data["buckets"]) != histogram.buckets:
                raise ValueError(
                    f"histogram {name!r} bucket mismatch on merge")
            with self._lock:
                for i, count in enumerate(data["counts"]):
                    histogram.counts[i] += count
                histogram.total += data["total"]
                histogram.count += data["count"]


def diff_snapshots(before: Dict, after: Dict) -> Dict:
    """The registry activity between two snapshots of one registry.

    Counters and histogram bins subtract; gauges report their ``after``
    value (a high-water mark has no meaningful delta).
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()}
    counters = {name: value for name, value in counters.items() if value}
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(
            name, {"counts": [0] * len(data["counts"]),
                   "total": 0.0, "count": 0})
        delta_counts: List[float] = [
            count - prior["counts"][i]
            for i, count in enumerate(data["counts"])]
        if any(delta_counts):
            histograms[name] = {
                "buckets": list(data["buckets"]),
                "counts": delta_counts,
                "total": data["total"] - prior["total"],
                "count": data["count"] - prior["count"],
            }
    return {"counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": histograms}

"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

One API absorbs the ad-hoc counters that accumulated across the planes
(`Network` gauges, `TierStats`, edge stats). Series are keyed by
``(name, labels)`` where labels are sorted ``(key, value)`` string
pairs, so the same series reached from two call sites is the same
object. ``encode()`` produces a *canonical* byte encoding — sorted
series, sorted keys, shortest-round-trip floats — so two registries
holding the same values encode to identical bytes regardless of
insertion order, and ``decode(encode(r))`` round-trips exactly. That
determinism is what lets worker processes ship registry deltas over the
pipe plane and lets tests assert telemetry-on/off bit-identity.
"""

from __future__ import annotations

import json
import threading
from typing import Iterator

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bounds, in seconds: 100us .. 10s, roughly
#: geometric. Observations above the last bound land in the overflow
#: bucket (``counts[-1]``).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic (by convention) integer/float accumulator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def set(self, value: int | float) -> None:
        # Compat hook for legacy ``ledger.gauge = n`` assignment sites;
        # new code should use inc().
        self.value = value


class Gauge:
    """Point-in-time value; set/add, last write wins."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def add(self, n: int | float = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram: ``len(bounds)+1`` counts (last bucket is
    overflow), plus sum/count for mean computation."""

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelKey, bounds: tuple[float, ...]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile (0..1)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]


class MetricsRegistry:
    """Labeled metric series with canonical, deterministic encoding.

    Thread-safe for series *creation* (concurrent client sessions on one
    serving frontend touch the registry from their own threads);
    per-series mutation is a single ``+=`` on a python object, which is
    safe under the GIL for our single-writer-per-series usage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- series accessors ------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        series = self._counters.get(key)
        if series is None:
            with self._lock:
                series = self._counters.setdefault(key, Counter(name, key[1]))
        return series

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        series = self._gauges.get(key)
        if series is None:
            with self._lock:
                series = self._gauges.setdefault(key, Gauge(name, key[1]))
        return series

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        series = self._histograms.get(key)
        if series is None:
            with self._lock:
                series = self._histograms.setdefault(
                    key, Histogram(name, key[1], tuple(buckets))
                )
        if series.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} {key[1]!r} re-registered with different "
                f"buckets: {series.bounds!r} vs {tuple(buckets)!r}"
            )
        return series

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    # -- snapshot / canonical encoding -----------------------------------
    def snapshot(self) -> dict:
        """Plain-data view: sorted series lists, JSON-safe throughout."""
        return {
            "counters": [
                [name, [list(p) for p in labels], series.value]
                for (name, labels), series in sorted(self._counters.items())
            ],
            "gauges": [
                [name, [list(p) for p in labels], series.value]
                for (name, labels), series in sorted(self._gauges.items())
            ],
            "histograms": [
                [
                    name,
                    [list(p) for p in labels],
                    list(series.bounds),
                    list(series.counts),
                    series.sum,
                    series.count,
                ]
                for (name, labels), series in sorted(self._histograms.items())
            ],
        }

    def encode(self) -> bytes:
        """Canonical bytes: equal registries encode equal, regardless of
        the order series were created in."""
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes | str) -> "MetricsRegistry":
        registry = cls()
        registry.merge(json.loads(data))
        return registry

    # -- merge / drain (worker delta shipping) ---------------------------
    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. a worker's drained delta) into this
        registry: counters/histograms add, gauges take the last write."""
        for name, labels, value in snapshot.get("counters", ()):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in snapshot.get("gauges", ()):
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, bounds, counts, total, count in snapshot.get(
            "histograms", ()
        ):
            series = self.histogram(name, buckets=tuple(bounds), **dict(labels))
            for i, c in enumerate(counts):
                series.counts[i] += c
            series.sum += total
            series.count += count

    def drain(self) -> dict:
        """Snapshot then reset — what the pipe-plane delta protocol ships
        at barrier quiescence so values are never double-counted."""
        snap = self.snapshot()
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return snap

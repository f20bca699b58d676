"""Thread-safe metrics: counters, gauges, log-bucketed histograms, families.

Design constraints, in order:

1. **Hot-path cost.**  ``Counter.inc`` and ``Histogram.observe`` run inside
   the serving fast paths and may be read from other threads while the
   engine serves, so each instrument carries its own small lock and does O(1)
   work — a histogram observation is one ``bisect`` into precomputed bucket
   boundaries.  Nothing allocates on the hot path.
2. **Exact, testable percentiles.**  Buckets are geometric
   (``lowest * growth**i``), and ``percentile(q)`` returns the *upper
   boundary* of the bucket where the cumulative count first reaches
   ``ceil(q * N)``.  On a known distribution the answer is a specific
   boundary value, which is what the unit tests pin.
3. **No dependencies.**  Prometheus text exposition is a string format,
   not a client library; :meth:`MetricsRegistry.render_prometheus` emits
   it directly.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledFamily",
    "MetricsRegistry",
]

#: Default histogram geometry: ~1µs to ~100s in 10 buckets per decade
#: (growth 10**0.1 ≈ 1.259), which bounds the relative error of any
#: reported percentile at ~26% while keeping the bucket array tiny.
DEFAULT_LOWEST = 1e-6
DEFAULT_GROWTH = 10.0 ** 0.1
DEFAULT_BUCKETS = 81  # lowest * growth**80 ≈ 100s


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"metric names are [A-Za-z0-9_]+, got {name!r}")
    return name


class Counter:
    """Monotonic counter; ``inc`` is thread-safe."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Settable instantaneous value; ``set``/``add`` are thread-safe."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Log-bucketed histogram with exact-boundary percentiles.

    Bucket ``i`` covers ``(boundary[i-1], boundary[i]]`` with
    ``boundary[i] = lowest * growth**i``; a first bucket catches values at
    or below ``lowest`` and a final overflow bucket catches everything
    above the last boundary.  ``percentile(q)`` reports the upper boundary
    of the bucket holding the ``ceil(q * N)``-th smallest observation —
    an upper bound on the true quantile, tight to one ``growth`` factor.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        lowest: float = DEFAULT_LOWEST,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if lowest <= 0 or growth <= 1 or buckets < 1:
            raise ValueError("need lowest > 0, growth > 1, buckets >= 1")
        self.name = _validate_name(name)
        self.help = help
        self.boundaries: Tuple[float, ...] = tuple(
            lowest * growth**i for i in range(buckets)
        )
        self._lock = threading.Lock()
        # One slot per boundary plus the overflow bucket.
        self._counts = [0] * (buckets + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bucket boundary covering quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.boundaries):
                    return self.boundaries[index]
                return math.inf  # overflow bucket has no upper bound
        return math.inf  # unreachable: cumulative reaches total

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            total = self._count
            sum_ = self._sum
        return {
            "count": total,
            "sum": sum_,
            "mean": (sum_ / total) if total else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_boundary, count)`` pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            upper = (
                self.boundaries[index]
                if index < len(self.boundaries)
                else math.inf
            )
            pairs.append((upper, cumulative))
        return pairs


class LabeledFamily:
    """A family of instruments keyed by label values (one label set each).

    ``family.labels(kind="shed")`` returns the child instrument for that
    label combination, creating it on first use; children are cached, so
    hot paths resolve labels once and hold the child.
    """

    def __init__(self, name, help, label_names, factory) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        if not self.label_names:
            raise ValueError("a labeled family needs at least one label name")
        self._factory = factory
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        self.kind = factory("_probe").kind

    def labels(self, **labels: str):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory(self.name)
                child.help = self.help
                self._children[key] = child
        return child

    def items(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def snapshot(self) -> Dict[str, object]:
        return {
            ",".join(
                f"{name}={value}"
                for name, value in zip(self.label_names, key)
            ): child.snapshot()
            for key, child in self.items()
        }


class MetricsRegistry:
    """Named instruments; registration is idempotent per (name, kind).

    ``registry.counter("repro_requests_total")`` returns the same counter
    every call, so instrumentation sites never coordinate about who
    creates what.  Re-registering a name as a different kind is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name, kind, labeled, factory):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind or (
                    isinstance(existing, LabeledFamily) != labeled
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__} ({existing.kind})"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ):
        labels = tuple(labels)
        if labels:
            return self._get_or_create(
                name, "counter", True,
                lambda: LabeledFamily(
                    name, help, labels, lambda n: Counter(n, help)
                ),
            )
        return self._get_or_create(
            name, "counter", False, lambda: Counter(name, help)
        )

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()):
        labels = tuple(labels)
        if labels:
            return self._get_or_create(
                name, "gauge", True,
                lambda: LabeledFamily(
                    name, help, labels, lambda n: Gauge(n, help)
                ),
            )
        return self._get_or_create(
            name, "gauge", False, lambda: Gauge(name, help)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        *,
        lowest: float = DEFAULT_LOWEST,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ):
        labels = tuple(labels)

        def _make(n: str = None) -> Histogram:
            return Histogram(
                n or name, help, lowest=lowest, growth=growth, buckets=buckets
            )

        if labels:
            return self._get_or_create(
                name, "histogram", True,
                lambda: LabeledFamily(name, help, labels, _make),
            )
        return self._get_or_create(name, "histogram", False, _make)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """Nested plain-data view of every instrument (JSON-serialisable)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in instruments}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, one block per instrument."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for name, instrument in instruments:
            lines.append(f"# HELP {name} {instrument.help or name}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, LabeledFamily):
                for key, child in instrument.items():
                    labels = _format_labels(instrument.label_names, key)
                    _render_one(lines, name, child, labels)
            else:
                _render_one(lines, name, instrument, "")
        return "\n".join(lines) + "\n"


def _format_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def _render_one(lines: List[str], name: str, instrument, labels: str) -> None:
    if isinstance(instrument, Histogram):
        previous = 0
        for upper, cumulative in instrument.bucket_counts():
            if cumulative == previous and not math.isinf(upper):
                continue  # keep the exposition small: skip empty buckets
            previous = cumulative
            le = "+Inf" if math.isinf(upper) else repr(upper)
            le_label = 'le="' + le + '"'
            lines.append(
                f"{name}_bucket{_merge_labels(labels, le_label)} {cumulative}"
            )
        lines.append(f"{name}_sum{labels} {instrument.sum}")
        lines.append(f"{name}_count{labels} {instrument.count}")
    else:
        lines.append(f"{name}{labels} {instrument.value}")

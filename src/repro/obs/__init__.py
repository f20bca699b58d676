"""Zero-dependency telemetry: metrics registry, request tracing, alarms.

The serving layers (engine, dispatcher, pool repository, event log) grew a
pile of ad-hoc stats dataclasses with no latency distributions, no
per-request causality and no export surface.  This package is the unified
substrate underneath them:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / log-bucketed :class:`Histogram`
  instruments (p50/p95/p99 from geometric buckets), optionally labeled
  into families, with a Prometheus text exposition renderer.
* :mod:`repro.obs.tracing` — a :class:`Tracer` building per-request span
  trees (dispatcher admission → engine → pool fill → batch search →
  event-log append), emitted as JSON-lines with slow-request sampling:
  traces slower than a threshold (or carrying an alarm) are always kept,
  the rest are count-sampled.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the serving
  code holds: one registry + one tracer + labeled ``alarm()`` events
  (replay divergence, dispatcher shed, ESS-gate rejections,
  worker restarts).  A disabled instance costs one attribute check per
  instrumentation site, which is what keeps the telemetry-on overhead
  under the CI-gated 5% budget (``benchmarks/test_bench_obs.py``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledFamily,
    MetricsRegistry,
)
from repro.obs.tracing import (
    InMemoryTraceSink,
    JsonLinesTraceSink,
    Span,
    TraceSink,
    Tracer,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryTraceSink",
    "JsonLinesTraceSink",
    "LabeledFamily",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "TraceSink",
    "Tracer",
]

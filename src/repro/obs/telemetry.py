"""The :class:`Telemetry` facade the serving layers hold.

One object bundles the three telemetry surfaces:

* a :class:`~repro.obs.metrics.MetricsRegistry` (always live — counters are
  cheap and the consolidated ``engine.observe()`` tree reads them even when
  tracing is off);
* a :class:`~repro.obs.tracing.Tracer` plus sink, gated by ``enabled``;
* labeled **alarms**: ``alarm("replay_divergence", ...)`` increments
  ``repro_alarms_total{kind="replay_divergence"}`` and emits a structured
  trace event that is always kept by the sampler.

Every instrumentation site in the serving code is written against this
facade: ``span()``, ``annotate()`` and ``record_child()`` do nothing when
tracing is off (``span()`` returns one shared null context), so a disabled
instance costs a method call and an attribute check per site — the
property the telemetry-overhead bench holds to its ≤5% ceiling.

Components that expose legacy stats objects register them as *observables*
(``register_observable("dispatcher", fn)``); ``engine.observe()`` folds
them into one tree next to the registry snapshot.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import InMemoryTraceSink, TraceSink, Tracer

__all__ = ["Telemetry"]


#: What ``span()`` returns when tracing is off: one stateless, reusable
#: context manager shared by every call.
_NOOP_SPAN = nullcontext()


class Telemetry:
    """Registry + tracer + alarms behind one ``enabled`` switch.

    ``Telemetry()`` is on; ``Telemetry.disabled()`` builds the inert
    instance the engine defaults to.  The registry works either way —
    ``alarm()`` always counts, it just skips the trace event when tracing
    is off.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sink: Optional[TraceSink] = None,
        slow_ms: float = 50.0,
        sample_every: int = 10,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry or MetricsRegistry()
        self.sink = sink or InMemoryTraceSink()
        self.tracer = Tracer(
            self.sink, slow_ms=slow_ms, sample_every=sample_every
        )
        self._alarms = self.registry.counter(
            "repro_alarms_total",
            "Alarm events by kind (replay divergence, shed, ESS gate, ...)",
            labels=("kind",),
        )
        self._observables: Dict[str, Callable[[], Any]] = {}

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    # -- tracing -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a traced span, or a shared no-op context when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return self.tracer.span(name, **attrs)

    def annotate(self, **attrs: Any) -> None:
        if self.enabled:
            self.tracer.annotate(**attrs)

    def record_child(self, name: str, duration_seconds: float, **attrs):
        if self.enabled:
            return self.tracer.record_child(name, duration_seconds, **attrs)
        return None

    def drain_traces(self):
        """Drain and return captured traces (in-memory sinks only)."""
        drain = getattr(self.sink, "drain", None)
        return drain() if drain is not None else []

    # -- alarms ------------------------------------------------------------

    def alarm(self, kind: str, **attrs: Any) -> None:
        """Count an alarm and emit a structured, always-kept trace event.

        Inside an open trace the alarm becomes a child span (and pins the
        whole trace past sampling); outside one it is emitted as its own
        single-span trace, so alarms are never lost to request sampling.
        """
        self._alarms.labels(kind=kind).inc()
        if not self.enabled:
            return
        if self.tracer.current is not None:
            self.tracer.record_child(f"alarm.{kind}", 0.0, **attrs)
            self.tracer.mark_keep()
        else:
            span = self.tracer.start_span(f"alarm.{kind}", **attrs)
            self.tracer.mark_keep()
            self.tracer.end_span(span)

    def alarm_count(self, kind: str) -> float:
        return self._alarms.labels(kind=kind).value

    # -- consolidated observation -----------------------------------------

    def register_observable(self, name: str, fn: Callable[[], Any]) -> None:
        """Expose a legacy stats surface under ``engine.observe()[name]``."""
        self._observables[name] = fn

    def observables(self) -> Dict[str, Any]:
        return {name: fn() for name, fn in sorted(self._observables.items())}

    # -- export ------------------------------------------------------------

    def prometheus_text(self) -> str:
        return self.registry.render_prometheus()

    def describe(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "tracer": self.tracer.describe(),
            "sink": type(self.sink).__name__,
            "observables": sorted(self._observables),
        }

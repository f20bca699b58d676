"""Request tracing: span trees, JSON-lines export, slow-request sampling.

A *trace* is the tree of spans covering one request: dispatcher admission →
``recommend``/``recommend_many`` → pool provisioning (adapt / refill /
maintain / fill — including process-shard fills reconstructed from worker
stats) → batched top-k search → event-log append.  Spans carry wall-clock
start, perf-counter duration, free-form attributes, and parent links.

The tracer is deliberately **single-threaded**: the serving path that opens
and closes spans runs on one thread (the engine's synchronous core; the
dispatcher's asyncio loop is also one thread).  Work fanned out to shard
worker processes is not traced in-flight; instead the engine
records *reconstructed* child spans from the stats each fill returns
(worker PID, fill seconds).  That keeps the hot instrumentation free of
locks — the thread-safety burden lives in :mod:`repro.obs.metrics`.

Finished traces go to a :class:`TraceSink` after a tail-based sampling
decision: traces whose root span is slower than ``slow_ms``, errored, or
flagged (``mark_keep`` — alarms do this) are always kept; the rest are
count-sampled (every ``sample_every``-th).  Trace and span ids are
deterministic counters, so identically seeded runs produce identical
trace files.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "InMemoryTraceSink",
    "JsonLinesTraceSink",
    "Span",
    "TraceSink",
    "Tracer",
]


class Span:
    """One timed operation inside a trace."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_unix",
        "start_perf",
        "duration_seconds",
        "attrs",
        "status",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_unix: float,
        start_perf: float,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix = start_unix
        self.start_perf = start_perf
        self.duration_seconds: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.status = "ok"

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def as_dict(self, root_start_perf: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round((self.start_perf - root_start_perf) * 1e3, 4),
            "duration_ms": round((self.duration_seconds or 0.0) * 1e3, 4),
            "status": self.status,
            "attrs": self.attrs,
        }


class TraceSink:
    """Destination for finished (sampled-in) traces."""

    def emit(self, trace: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class InMemoryTraceSink(TraceSink):
    """Keep the last ``max_traces`` traces in memory (benches, tests)."""

    def __init__(self, max_traces: int = 256) -> None:
        self.max_traces = max_traces
        self.traces: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, trace: Dict[str, Any]) -> None:
        self.traces.append(trace)
        if len(self.traces) > self.max_traces:
            del self.traces[0]
            self.dropped += 1

    def drain(self) -> List[Dict[str, Any]]:
        drained, self.traces = self.traces, []
        return drained


class JsonLinesTraceSink(TraceSink):
    """Append one JSON object per trace to a file (the export format)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self.emitted = 0

    def emit(self, trace: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(trace, sort_keys=True) + "\n")
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        self._handle.close()


class Tracer:
    """Builds span trees for one request at a time and emits them to a sink.

    ``span(name, **attrs)`` is a context manager; the first span opened when
    the stack is empty becomes the trace root, and closing it finalises the
    trace, applies the sampling decision, and emits.  ``start_span`` /
    ``end_span`` exist for call sites that cannot use ``with`` (backdated
    dispatcher queue spans, reconstructed worker fills).
    """

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        *,
        slow_ms: float = 50.0,
        sample_every: int = 10,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sink = sink or InMemoryTraceSink()
        self.slow_ms = slow_ms
        self.sample_every = sample_every
        self.traces_finished = 0
        self.traces_kept = 0
        self.traces_sampled_out = 0
        self._trace_counter = 0
        self._span_counter = 0
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._keep_flag = False

    # -- span lifecycle ----------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, **attrs: Any) -> Span:
        if self._stack:
            root = self._stack[0]
            trace_id = root.trace_id
            parent_id = self._stack[-1].span_id
        else:
            self._trace_counter += 1
            self._span_counter = 0
            self._finished = []
            self._keep_flag = False
            trace_id = f"t-{self._trace_counter:06d}"
            parent_id = None
        self._span_counter += 1
        span = Span(
            name,
            trace_id,
            f"s-{self._span_counter:04d}",
            parent_id,
            time.time(),
            time.perf_counter(),
        )
        if attrs:
            span.attrs.update(attrs)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        if span.duration_seconds is None:
            span.duration_seconds = time.perf_counter() - span.start_perf
        self._finished.append(span)
        if not self._stack:
            self._finish_trace(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self.end_span(span)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside one)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def record_child(
        self,
        name: str,
        duration_seconds: float,
        *,
        start_perf: Optional[float] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Add an already-finished child span under the current span.

        This is how process-shard fills appear in traces: the work ran in a
        worker process, so the engine reconstructs the span from the stats
        the worker returned (duration, PID) after the fact.  Returns the
        span, or ``None`` when no trace is open.
        """
        if not self._stack:
            return None
        parent = self._stack[-1]
        self._span_counter += 1
        now_perf = time.perf_counter()
        started = start_perf if start_perf is not None else (
            now_perf - duration_seconds
        )
        span = Span(
            name,
            parent.trace_id,
            f"s-{self._span_counter:04d}",
            parent.span_id,
            time.time() - duration_seconds,
            started,
        )
        span.duration_seconds = duration_seconds
        span.attrs.update(attrs)
        self._finished.append(span)
        return span

    def mark_keep(self) -> None:
        """Force the open trace past sampling (alarms always keep traces)."""
        self._keep_flag = True

    # -- trace completion --------------------------------------------------

    def _finish_trace(self, root: Span) -> None:
        self.traces_finished += 1
        duration_ms = (root.duration_seconds or 0.0) * 1e3
        if self._keep_flag:
            reason = "alarm"
        elif root.status != "ok" or any(
            span.status != "ok" for span in self._finished
        ):
            reason = "error"
        elif duration_ms >= self.slow_ms:
            reason = "slow"
        elif (self.traces_finished % self.sample_every) == 0:
            reason = "sampled"
        else:
            reason = None
        finished, self._finished = self._finished, []
        self._keep_flag = False
        if reason is None:
            self.traces_sampled_out += 1
            return
        self.traces_kept += 1
        finished.sort(key=lambda span: (span.start_perf, span.span_id))
        self.sink.emit(
            {
                "trace_id": root.trace_id,
                "root": root.name,
                "start_unix": root.start_unix,
                "duration_ms": round(duration_ms, 4),
                "kept_because": reason,
                "spans": [
                    span.as_dict(root.start_perf) for span in finished
                ],
            }
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "traces_finished": self.traces_finished,
            "traces_kept": self.traces_kept,
            "traces_sampled_out": self.traces_sampled_out,
            "slow_ms": self.slow_ms,
            "sample_every": self.sample_every,
            "open_spans": len(self._stack),
        }

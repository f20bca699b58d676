"""Micro-batching dispatcher: concurrent ``recommend`` calls → one batch.

The serving engine's batched paths (:meth:`RecommendationEngine.recommend_many`
→ shared pool fills → one across-session top-k walk) only pay off when many
sessions are served *in one call* — but network clients issue one request
each.  :class:`MicroBatchDispatcher` is the piece in between: concurrent
``recommend`` submissions accumulate in a window bounded by ``max_batch_size``
requests and ``max_wait`` seconds (whichever trips first), and the whole
window is dispatched through ``recommend_many``.

The default ``max_wait`` is 0: the flush timer is due at once, so the window
flushes on the event loop's next iteration, once every request that was
already concurrent has joined it — group commit that batches only what piles up,
never lingering for company.  Batching survives because dispatch is
synchronous: requests arriving while a batch executes queue up and form the
next window.  A linger timer adds its full length to every idle-period
round — for a round served from the caches, more than the serve itself —
and adds few requests to a batch under load.  A positive ``max_wait`` keeps the
linger: the window waits that long after its first request.  Every
window, a lone request included, goes to ``engine.recommend_many``: the
engine serves one session and many through the same pipeline.

Concurrency model: the dispatcher is single-threaded asyncio.  Dispatch runs
synchronously on the event loop (the engine is CPU-bound and not
thread-safe), so concurrency buys *batching*, not parallelism — requests
that arrive while a batch is executing queue up and form the next window.

Error isolation: ``recommend_many`` is all-or-nothing (one unknown session id
fails the whole call), so a failing batch is re-served request by request —
every healthy request still gets its round and only the failing ones see
their exception.

Backpressure: ``max_pending`` caps how many requests the current window may
hold; a submission beyond it fails fast with
:class:`DispatcherOverloadedError` (counted as ``requests_shed``) instead of
growing the queue, so overload surfaces at admission where a client can back
off, not as unbounded latency.

Graceful shutdown: :meth:`aclose` refuses new submissions, then drains —
every request already admitted to the window is dispatched and resolved
before the coroutine returns.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "DispatcherClosedError",
    "DispatcherOverloadedError",
    "DispatcherStats",
    "MicroBatchDispatcher",
]


class DispatcherClosedError(RuntimeError):
    """A request was submitted after :meth:`MicroBatchDispatcher.aclose`."""


class DispatcherOverloadedError(RuntimeError):
    """A request was shed: the pending window is at ``max_pending``.

    Raised synchronously inside :meth:`MicroBatchDispatcher.submit`, before
    the request is admitted — the shed request never occupies a window slot
    and its session is never advanced, so the caller can safely retry (with
    backoff).
    """


@dataclass
class DispatcherStats:
    """Counters describing how requests were grouped and dispatched."""

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_cancelled: int = 0
    requests_shed: int = 0
    batches_dispatched: int = 0
    size_flushes: int = 0
    timer_flushes: int = 0
    drain_flushes: int = 0
    batch_fallbacks: int = 0
    largest_batch: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests per dispatched batch (0.0 when idle)."""
        if not self.batches_dispatched:
            return 0.0
        return (self.requests_completed + self.requests_failed) / self.batches_dispatched

    def as_dict(self) -> dict:
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_cancelled": self.requests_cancelled,
            "requests_shed": self.requests_shed,
            "batches_dispatched": self.batches_dispatched,
            "size_flushes": self.size_flushes,
            "timer_flushes": self.timer_flushes,
            "drain_flushes": self.drain_flushes,
            "batch_fallbacks": self.batch_fallbacks,
            "largest_batch": self.largest_batch,
            "mean_batch_size": self.mean_batch_size,
        }


class MicroBatchDispatcher:
    """Accumulate concurrent ``recommend`` requests and dispatch them batched.

    Parameters
    ----------
    engine:
        Anything with the engine's serving surface: ``recommend(session_id)``
        and ``recommend_many(session_ids)``.  Duck-typed so tests can observe
        batching with a stub.
    max_batch_size:
        Window flushes immediately once this many requests are pending.
    max_wait:
        Seconds the *first* request of a window waits for company before the
        window flushes anyway (the latency bound an idle-period request
        pays).  ``0`` (default) flushes on the loop's next iteration, so a
        window holds only requests that were already concurrent.
    max_pending:
        Backpressure cap on the pending window: a ``submit`` arriving while
        ``max_pending`` requests are already waiting is rejected with
        :class:`DispatcherOverloadedError` instead of being admitted (and
        counted in ``DispatcherStats.requests_shed``).  ``None`` (default)
        never sheds.  The cap binds when it is below ``max_batch_size`` —
        with dispatch running synchronously on the event loop, the size
        flush otherwise empties the window first — and it is the safety
        valve that keeps admission bounded if dispatch ever becomes
        asynchronous (an executor, a process pool).
    """

    def __init__(
        self,
        engine,
        max_batch_size: int = 16,
        max_wait: float = 0.0,
        max_pending: Optional[int] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be > 0, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending is not None and max_pending <= 0:
            raise ValueError(
                f"max_pending must be > 0 or None, got {max_pending}"
            )
        self.engine = engine
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait)
        self.max_pending = int(max_pending) if max_pending is not None else None
        self.stats = DispatcherStats()
        # Pending window entries: (session_id, future, admission perf-time).
        # The admission time becomes the backdated ``dispatcher.queue_wait``
        # child span when the window dispatches under tracing.
        self._pending: List[Tuple[str, asyncio.Future, float]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._closed = False
        # Borrow the engine's telemetry facade (duck-typed: stub engines in
        # tests have none).  Sheds fire alarms through it, and the
        # dispatcher's counters join ``engine.observe()``.
        self.telemetry = getattr(engine, "telemetry", None)
        if self.telemetry is not None:
            self.telemetry.register_observable("dispatcher", self.stats.as_dict)

    # ----------------------------------------------------------------- window
    async def submit(self, session_id: str):
        """Enqueue one ``recommend`` request; resolves to its round.

        The request joins the current window.  The window is dispatched when
        it reaches ``max_batch_size`` (immediately, inside this call) or when
        ``max_wait`` elapses since its first request (on the loop's timer).
        """
        if self._closed:
            raise DispatcherClosedError("dispatcher is closed to new requests")
        if (
            self.max_pending is not None
            and len(self._pending) >= self.max_pending
        ):
            self.stats.requests_shed += 1
            if self.telemetry is not None:
                self.telemetry.alarm(
                    "dispatcher_shed",
                    session_id=session_id,
                    pending=len(self._pending),
                )
            raise DispatcherOverloadedError(
                f"dispatcher window is full ({self.max_pending} pending "
                f"requests); retry after the current window flushes"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((session_id, future, time.perf_counter()))
        self.stats.requests_submitted += 1
        if len(self._pending) >= self.max_batch_size:
            self._flush("size")
        elif self._timer is None:
            self._timer = loop.call_later(self.max_wait, self._flush, "timer")
        return await future

    @property
    def pending_requests(self) -> int:
        """Number of requests waiting in the current window."""
        return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def _flush(self, reason: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        if reason == "size":
            self.stats.size_flushes += 1
        elif reason == "timer":
            self.stats.timer_flushes += 1
        else:
            self.stats.drain_flushes += 1
        self._dispatch(batch)

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, batch: List[Tuple[str, asyncio.Future, float]]) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            self._dispatch_batch(batch)
            return
        # The dispatch span is the trace root: the engine's recommend /
        # recommend_many spans nest under it, and each request's time in the
        # window appears as a backdated queue_wait child.
        with telemetry.span("dispatcher.dispatch", batch_size=len(batch)):
            now = time.perf_counter()
            for session_id, _future, admitted in batch:
                telemetry.record_child(
                    "dispatcher.queue_wait",
                    now - admitted,
                    start_perf=admitted,
                    session_id=session_id,
                )
            self._dispatch_batch(batch)

    def _dispatch_batch(
        self, batch: List[Tuple[str, asyncio.Future, float]]
    ) -> None:
        # A submitter may have been cancelled while waiting in the window
        # (asyncio.wait_for timeouts); serving its round would advance the
        # session for a caller that is gone, so drop done futures up front.
        live = [item for item in batch if not item[1].done()]
        self.stats.requests_cancelled += len(batch) - len(live)
        if not live:
            return
        batch = live
        self.stats.batches_dispatched += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        session_ids = [session_id for session_id, _future, _admitted in batch]
        try:
            rounds = self.engine.recommend_many(session_ids)
        except Exception:
            # recommend_many acquires every session before serving any, so
            # one bad id (unknown, expired) fails the whole call.  Re-serve
            # the batch request by request: healthy sessions still get their
            # round, only the failing ones see their own exception.  If the
            # failure instead hit mid-serve (rare: a pool build blowing up),
            # sessions served before it are served again — they receive a
            # *later* round than the discarded one, which the request/response
            # contract allows; the cost is the wasted partial batch.
            self.stats.batch_fallbacks += 1
            for session_id, future, _admitted in batch:
                try:
                    self._resolve(future, self.engine.recommend(session_id))
                except Exception as exc:  # noqa: BLE001
                    self._reject(future, exc)
            return
        for (_session_id, future, _admitted), round_ in zip(batch, rounds):
            self._resolve(future, round_)

    def _resolve(self, future: asyncio.Future, round_) -> None:
        self.stats.requests_completed += 1
        if not future.done():  # the submitter may have been cancelled
            future.set_result(round_)

    def _reject(self, future: asyncio.Future, exc: Exception) -> None:
        self.stats.requests_failed += 1
        if not future.done():
            future.set_exception(exc)

    # --------------------------------------------------------------- shutdown
    async def drain(self) -> None:
        """Dispatch the current window immediately, without closing."""
        self._flush("drain")

    async def aclose(self) -> None:
        """Refuse new requests and drain everything already admitted.

        Dispatch is synchronous on the event loop, so when this returns every
        admitted request has been resolved (with a round or an exception).
        Idempotent.
        """
        self._closed = True
        self._flush("drain")

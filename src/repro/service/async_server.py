"""Async front-end for the serving engine: concurrency in, batches out.

:class:`AsyncRecommendationServer` is the request surface a network layer
(HTTP handler, websocket loop, queue consumer) would call: ``await``-able
``create_session`` / ``recommend`` / ``feedback`` / ``close_session`` over
one shared :class:`~repro.service.engine.RecommendationEngine`.  The point of
the async layer is the ``recommend`` path: concurrent calls do not serialise
on the sampler the way sequential ``engine.recommend`` calls do — they are
absorbed by a :class:`~repro.service.dispatcher.MicroBatchDispatcher` window
(default: up to 16 requests, flushed at the loop's next iteration) and
dispatched together through ``recommend_many``, where cache-missing sessions
share one batched pool fill and one across-session top-k walk.  Concurrency
becomes throughput.  The window does not linger for company by default:
requests that arrive while a batch runs queue up and form the next one, so
batching needs no linger, and an idle-period round pays no wait.

The cheap control-plane calls (``create_session``, ``feedback``,
``close_session``, ``snapshot``) run inline on the event loop: they touch
per-session state only and cost microseconds next to a round.  Everything is
single-threaded — the engine is CPU-bound and not thread-safe, so the server
never hands it to an executor; see the dispatcher docstring for the model.

Typical usage::

    server = AsyncRecommendationServer(engine)
    async with server:
        sid = await server.create_session()
        round_ = await server.recommend(sid)       # batched with neighbours
        await server.feedback(sid, clicked=0)
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.elicitation import RecommendationRound
from repro.core.packages import Package
from repro.service.dispatcher import MicroBatchDispatcher
from repro.service.engine import RecommendationEngine

__all__ = ["AsyncRecommendationServer"]


class AsyncRecommendationServer:
    """Asyncio request/response surface over a :class:`RecommendationEngine`.

    Parameters
    ----------
    engine:
        The (synchronous) serving engine every call is routed to.
    max_batch_size / max_wait:
        Micro-batch window bounds forwarded to the
        :class:`~repro.service.dispatcher.MicroBatchDispatcher`: a window is
        dispatched once ``max_batch_size`` ``recommend`` requests are pending
        or ``max_wait`` seconds after its first request, whichever comes
        first; ``max_wait=0`` (default) dispatches on the loop's next
        iteration.
    max_pending:
        Backpressure cap forwarded to the dispatcher: ``recommend`` calls
        arriving while the window already holds this many requests raise
        :class:`~repro.service.dispatcher.DispatcherOverloadedError` instead
        of queueing unboundedly; ``None`` never sheds.
    """

    def __init__(
        self,
        engine: RecommendationEngine,
        max_batch_size: int = 16,
        max_wait: float = 0.0,
        max_pending: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.dispatcher = MicroBatchDispatcher(
            engine,
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            max_pending=max_pending,
        )

    # -------------------------------------------------------------- lifecycle
    async def create_session(
        self,
        session_id: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> str:
        """Open a new elicitation session and return its id."""
        return self.engine.create_session(session_id=session_id, seed=seed)

    async def close_session(self, session_id: str) -> bool:
        """Terminate a session; returns whether it existed."""
        return self.engine.close(session_id)

    # ---------------------------------------------------------------- serving
    async def recommend(self, session_id: str) -> RecommendationRound:
        """Serve one round, micro-batched with concurrent neighbours.

        A caller must await its round before sending ``feedback`` for it —
        the usual request/response contract; the dispatcher preserves no
        cross-request ordering beyond that.
        """
        return await self.dispatcher.submit(session_id)

    async def feedback(
        self, session_id: str, clicked: Union[int, Package]
    ) -> int:
        """Record a click on the session's last served round."""
        return self.engine.feedback(session_id, clicked)

    async def snapshot(self, session_id: str) -> dict:
        """JSON-serialisable snapshot of a session (see the engine docs)."""
        return self.engine.snapshot(session_id)

    # --------------------------------------------------------------- shutdown
    async def shutdown(self) -> None:
        """Stop accepting ``recommend`` requests and drain the window.

        Every request already admitted is dispatched and resolved before this
        returns; later :meth:`recommend` calls raise
        :class:`~repro.service.dispatcher.DispatcherClosedError`.
        """
        await self.dispatcher.aclose()

    async def __aenter__(self) -> "AsyncRecommendationServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Engine counters plus dispatcher batching counters."""
        return {
            "engine": self.engine.stats().as_dict(),
            "dispatcher": self.dispatcher.stats.as_dict(),
        }

    # -------------------------------------------------------------- telemetry
    def observe(self) -> dict:
        """The engine's consolidated observation tree (see ``engine.observe``).

        The dispatcher registered itself as an observable at construction,
        so its batching counters appear under ``"dispatcher"``.
        """
        return self.engine.observe()

    def metrics_text(self) -> str:
        """The engine's metrics registry in Prometheus text exposition."""
        return self.engine.telemetry.prometheus_text()

    def drain_traces(self) -> list:
        """Drain captured request traces (in-memory sinks only)."""
        return self.engine.telemetry.drain_traces()

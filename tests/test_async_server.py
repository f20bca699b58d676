"""Tests for the async front-end: micro-batch dispatcher + server facade.

Covers the dispatch-window contract called out for this subsystem: flush on
max batch size vs max wait, the single-request fast path, per-request error
isolation (one failing session must not poison its batch), and graceful
shutdown draining every admitted request.  The dispatcher tests observe
batching through a stub engine; the server tests run the real engine.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.service import (
    AsyncRecommendationServer,
    DispatcherClosedError,
    DispatcherOverloadedError,
    EngineConfig,
    MicroBatchDispatcher,
    RecommendationEngine,
    SessionNotFoundError,
)
from repro.simulation.traffic import AsyncTrafficSimulator, AsyncWorkloadSpec


class StubEngine:
    """Engine stand-in that records how requests were grouped."""

    def __init__(self, fail_ids=()):
        self.fail_ids = set(fail_ids)
        self.single_calls = []
        self.batch_calls = []

    def recommend(self, session_id):
        self.single_calls.append(session_id)
        if session_id in self.fail_ids:
            raise SessionNotFoundError(session_id)
        return f"round:{session_id}"

    def recommend_many(self, session_ids):
        self.batch_calls.append(list(session_ids))
        for session_id in session_ids:
            if session_id in self.fail_ids:
                raise SessionNotFoundError(session_id)
        return [f"round:{session_id}" for session_id in session_ids]


class ShardAwareStubEngine(StubEngine):
    """Stub with the sharded-engine planning surface (``fill_shard_plan``)."""

    def __init__(self, plan=None, **kwargs):
        super().__init__(**kwargs)
        self.plan = dict(plan or {})
        self.plan_calls = []

    def fill_shard_plan(self, session_ids):
        self.plan_calls.append(list(session_ids))
        return {
            session_id: self.plan[session_id]
            for session_id in session_ids
            if session_id in self.plan
        }


@pytest.fixture
def serving_catalog() -> ItemCatalog:
    rng = np.random.default_rng(11)
    return ItemCatalog(rng.random((30, 3)))


@pytest.fixture
def serving_profile() -> AggregateProfile:
    return AggregateProfile(["sum", "avg", "max"])


def make_engine(catalog, profile, **config_overrides):
    elicitation = ElicitationConfig(
        k=2,
        num_random=2,
        max_package_size=2,
        num_samples=40,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=60,
        search_items_cap=25,
        seed=0,
    )
    config = EngineConfig(elicitation=elicitation, seed=1, **config_overrides)
    return RecommendationEngine(catalog, profile, config)


# ================================================================ dispatcher
class TestDispatchWindow:
    def test_flush_on_max_batch_size(self):
        """A full window dispatches immediately — no timer wait."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=4, max_wait=60.0)
            results = await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(4))
            )
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results == [f"round:s{i}" for i in range(4)]
        assert engine.batch_calls == [["s0", "s1", "s2", "s3"]]
        assert engine.single_calls == []
        assert dispatcher.stats.size_flushes == 1
        assert dispatcher.stats.timer_flushes == 0

    def test_flush_on_max_wait(self):
        """A part-filled window dispatches once max_wait elapses."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(
                engine, max_batch_size=100, max_wait=0.005
            )
            results = await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(3))
            )
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results == ["round:s0", "round:s1", "round:s2"]
        assert engine.batch_calls == [["s0", "s1", "s2"]]
        assert dispatcher.stats.timer_flushes == 1
        assert dispatcher.stats.size_flushes == 0

    def test_oversized_burst_splits_into_full_windows(self):
        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=4, max_wait=0.005)
            await asyncio.gather(*(dispatcher.submit(f"s{i}") for i in range(10)))
            return engine, dispatcher

        engine, dispatcher = asyncio.run(main())
        assert [len(batch) for batch in engine.batch_calls] == [4, 4, 2]
        assert dispatcher.stats.size_flushes == 2
        assert dispatcher.stats.timer_flushes == 1

    def test_lone_request_goes_through_recommend_many(self):
        """A window of one request is served like any other window."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=16, max_wait=0.002)
            result = await dispatcher.submit("solo")
            return engine, dispatcher, result

        engine, dispatcher, result = asyncio.run(main())
        assert result == "round:solo"
        assert engine.batch_calls == [["solo"]]
        assert engine.single_calls == []

    def test_error_isolation_within_a_batch(self):
        """One failing session gets its exception; the rest get rounds."""

        async def main():
            engine = StubEngine(fail_ids={"bad"})
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=3, max_wait=60.0)
            results = await asyncio.gather(
                dispatcher.submit("a"),
                dispatcher.submit("bad"),
                dispatcher.submit("b"),
                return_exceptions=True,
            )
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results[0] == "round:a"
        assert isinstance(results[1], SessionNotFoundError)
        assert results[2] == "round:b"
        assert dispatcher.stats.batch_fallbacks == 1
        assert dispatcher.stats.requests_failed == 1
        assert dispatcher.stats.requests_completed == 2

    def test_graceful_shutdown_drains_admitted_requests(self):
        """aclose dispatches the pending window before refusing new work."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=100, max_wait=60.0)
            tasks = [
                asyncio.ensure_future(dispatcher.submit(f"s{i}")) for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submissions enter the window
            assert dispatcher.pending_requests == 3
            await dispatcher.aclose()
            results = await asyncio.gather(*tasks)
            with pytest.raises(DispatcherClosedError):
                await dispatcher.submit("late")
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results == ["round:s0", "round:s1", "round:s2"]
        assert dispatcher.stats.drain_flushes == 1
        assert dispatcher.closed

    def test_cancelled_requests_are_dropped_before_dispatch(self):
        """A submitter that timed out in the window never reaches the engine."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=100, max_wait=60.0)
            kept = asyncio.ensure_future(dispatcher.submit("kept"))
            doomed = asyncio.ensure_future(dispatcher.submit("doomed"))
            await asyncio.sleep(0)  # both enter the window
            doomed.cancel()
            await dispatcher.drain()
            result = await kept
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return engine, dispatcher, result

        engine, dispatcher, result = asyncio.run(main())
        assert result == "round:kept"
        # The cancelled session was never served: "kept" only.
        assert engine.batch_calls == [["kept"]]
        assert engine.single_calls == []
        assert dispatcher.stats.requests_cancelled == 1
        assert dispatcher.stats.requests_completed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatchDispatcher(StubEngine(), max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatchDispatcher(StubEngine(), max_wait=-1.0)
        with pytest.raises(ValueError):
            MicroBatchDispatcher(StubEngine(), max_pending=0)


# ==================================================== default (zero) window
class TestDefaultWindowFlushesAtLoopIdle:
    """``max_wait=0`` (the default) batches only already-concurrent requests."""

    def test_default_max_wait_is_zero(self):
        assert MicroBatchDispatcher(StubEngine()).max_wait == 0.0

    def test_submits_in_one_loop_tick_form_one_batch(self):
        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine)
            results = await asyncio.gather(dispatcher.submit("a"), dispatcher.submit("b"))
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results == ["round:a", "round:b"]
        assert engine.batch_calls == [["a", "b"]]
        assert engine.single_calls == []
        assert dispatcher.stats.timer_flushes == 1

    def test_lone_submit_resolves_without_a_timer_wait(self):
        """A lone request is served within a few loop iterations, not after a linger."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine)
            task = asyncio.ensure_future(dispatcher.submit("solo"))
            # Iterations: the task admits the request, the flush serves it,
            # the task wakes with the result.
            for _ in range(3):
                await asyncio.sleep(0)
            return engine, dispatcher, task

        engine, dispatcher, task = asyncio.run(main())
        assert task.done() and task.result() == "round:solo"
        assert engine.batch_calls == [["solo"]]
        assert dispatcher.stats.timer_flushes == 1

    def test_submit_after_the_flush_joins_a_fresh_window(self):
        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine)
            first = asyncio.ensure_future(dispatcher.submit("a"))
            while not dispatcher.stats.timer_flushes:
                await asyncio.sleep(0)
            second = asyncio.ensure_future(dispatcher.submit("b"))
            return engine, await asyncio.gather(first, second)

        engine, results = asyncio.run(main())
        assert results == ["round:a", "round:b"]
        assert engine.batch_calls == [["a"], ["b"]]
        assert engine.single_calls == []

    def test_size_flush_cancels_the_pending_idle_flush(self):
        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_batch_size=2)
            results = await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(3))
            )
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results == ["round:s0", "round:s1", "round:s2"]
        assert engine.batch_calls == [["s0", "s1"], ["s2"]]
        assert engine.single_calls == []
        assert dispatcher.stats.size_flushes == 1
        assert dispatcher.stats.timer_flushes == 1

    def test_one_tick_overflow_is_shed(self):
        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(engine, max_pending=2)
            results = await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(4)),
                return_exceptions=True,
            )
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        assert results[:2] == ["round:s0", "round:s1"]
        assert all(isinstance(r, DispatcherOverloadedError) for r in results[2:])
        assert dispatcher.stats.requests_shed == 2
        assert engine.batch_calls == [["s0", "s1"]]

    def test_server_default_batches_concurrent_rounds(
        self, serving_catalog, serving_profile
    ):
        async def main():
            engine = make_engine(serving_catalog, serving_profile)
            async with AsyncRecommendationServer(engine) as server:
                ids = [await server.create_session(seed=i) for i in range(4)]
                rounds = await asyncio.gather(*(server.recommend(sid) for sid in ids))
            return server, rounds

        server, rounds = asyncio.run(main())
        assert all(round_.presented for round_ in rounds)
        assert server.dispatcher.max_wait == 0.0
        assert server.dispatcher.stats.batches_dispatched == 1
        assert server.dispatcher.stats.largest_batch == 4


# ============================================================ dispatch order
class TestShardAwareDispatch:
    """Windows reach the engine in arrival order; the dispatcher never plans.

    Grouping pool fills by shard is ``ShardedPoolRepository.fill_many``'s
    job, and it does so whatever order a window arrives in.
    """

    def _dispatch(self, engine, ids):
        async def main():
            dispatcher = MicroBatchDispatcher(
                engine, max_batch_size=len(ids), max_wait=60.0
            )
            return await asyncio.gather(
                *(dispatcher.submit(session_id) for session_id in ids)
            )

        return asyncio.run(main())

    def test_window_groups_pool_missing_sessions_by_shard(
        self, serving_catalog, serving_profile
    ):
        """An interleaved window of a 4-shard engine fills once per shard."""
        engine = make_engine(serving_catalog, serving_profile, pool_shards=4)
        repository = engine.pool_repository
        fill_batches = []
        run_fill_batches = repository.backend.run_fill_batches

        def record(batches):
            fill_batches.append(
                [(shard.index, [job.key for job in jobs]) for shard, jobs in batches]
            )
            return run_fill_batches(batches)

        repository.backend.run_fill_batches = record
        plan_calls = []
        fill_shard_plan = engine.fill_shard_plan

        def plan(session_ids):
            plan_calls.append(list(session_ids))
            return fill_shard_plan(session_ids)

        engine.fill_shard_plan = plan
        ids = [engine.create_session(seed=100 + i) for i in range(6)]
        for round_index in range(3):
            rounds = self._dispatch(engine, ids)
            assert all(round_.presented for round_ in rounds)
            for index, (session_id, round_) in enumerate(zip(ids, rounds)):
                engine.feedback(
                    session_id, (index + round_index) % len(round_.presented)
                )
        assert plan_calls == []
        assert any(len(batch) > 1 for batch in fill_batches)
        for batch in fill_batches:
            shards = [index for index, _keys in batch]
            assert len(shards) == len(set(shards))
            for index, keys in batch:
                assert all(repository.shard_for(key).index == index for key in keys)
        engine.close_repository()

    def test_sessions_with_live_pools_keep_arrival_order_after_groups(self):
        """A plan that would reorder is never asked for, in any window."""
        engine = ShardAwareStubEngine(plan={"a": 1, "b": 0, "c": 1, "d": 0})

        async def main():
            dispatcher = MicroBatchDispatcher(engine)
            first = await asyncio.gather(
                *(dispatcher.submit(session_id) for session_id in "abcd")
            )
            second = await asyncio.gather(
                *(dispatcher.submit(session_id) for session_id in "dcb")
            )
            await dispatcher.aclose()
            return first + second

        results = asyncio.run(main())
        assert results == [f"round:{session_id}" for session_id in "abcddcb"]
        assert engine.batch_calls == [["a", "b", "c", "d"], ["d", "c", "b"]]
        assert engine.plan_calls == []

    def test_single_shard_windows_are_left_untouched(self):
        engine = ShardAwareStubEngine(plan={"a": 3, "c": 3})
        results = self._dispatch(engine, ["a", "b", "c"])
        assert results == ["round:a", "round:b", "round:c"]
        assert engine.batch_calls == [["a", "b", "c"]]
        assert engine.plan_calls == []

    def test_engines_without_the_surface_are_left_untouched(self):
        engine = StubEngine()
        results = self._dispatch(engine, ["x", "y", "z"])
        assert results == ["round:x", "round:y", "round:z"]
        assert engine.batch_calls == [["x", "y", "z"]]


# ============================================================= backpressure
class TestBackpressure:
    def test_requests_beyond_max_pending_are_shed(self):
        """The cap rejects at admission; admitted requests still serve."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(
                engine, max_batch_size=16, max_wait=0.01, max_pending=3
            )
            results = await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(5)),
                return_exceptions=True,
            )
            await dispatcher.drain()
            return engine, dispatcher, results

        engine, dispatcher, results = asyncio.run(main())
        shed = [r for r in results if isinstance(r, DispatcherOverloadedError)]
        served = [r for r in results if isinstance(r, str)]
        assert len(shed) == 2 and len(served) == 3
        assert dispatcher.stats.requests_shed == 2
        # Shed requests never touched the engine.
        assert engine.batch_calls == [["s0", "s1", "s2"]]
        assert dispatcher.stats.requests_submitted == 3

    def test_window_reopens_after_a_flush(self):
        """Shedding is transient: capacity returns once the window flushes."""

        async def main():
            engine = StubEngine()
            dispatcher = MicroBatchDispatcher(
                engine, max_batch_size=16, max_wait=0.005, max_pending=2
            )
            first = await asyncio.gather(
                *(dispatcher.submit(f"a{i}") for i in range(3)),
                return_exceptions=True,
            )
            second = await dispatcher.submit("b0")  # fresh window: admitted
            return first, second

        first, second = asyncio.run(main())
        assert sum(isinstance(r, DispatcherOverloadedError) for r in first) == 1
        assert second == "round:b0"

    def test_no_cap_never_sheds(self):
        async def main():
            dispatcher = MicroBatchDispatcher(
                StubEngine(), max_batch_size=64, max_wait=0.005
            )
            return await asyncio.gather(
                *(dispatcher.submit(f"s{i}") for i in range(32))
            )

        results = asyncio.run(main())
        assert len(results) == 32

    def test_server_forwards_max_pending(self, serving_catalog, serving_profile):
        async def main():
            engine = make_engine(serving_catalog, serving_profile)
            async with AsyncRecommendationServer(
                engine, max_batch_size=16, max_wait=0.01, max_pending=2
            ) as server:
                ids = [await server.create_session(seed=i) for i in range(4)]
                results = await asyncio.gather(
                    *(server.recommend(sid) for sid in ids),
                    return_exceptions=True,
                )
            return server, results

        server, results = asyncio.run(main())
        shed = [
            r for r in results if isinstance(r, DispatcherOverloadedError)
        ]
        assert len(shed) == 2
        assert server.dispatcher.stats.requests_shed == 2
        assert server.stats()["dispatcher"]["requests_shed"] == 2


# ============================================================== async server
class TestAsyncRecommendationServer:
    def test_full_session_loop_over_the_real_engine(
        self, serving_catalog, serving_profile
    ):
        async def main():
            engine = make_engine(serving_catalog, serving_profile)
            async with AsyncRecommendationServer(
                engine, max_batch_size=4, max_wait=0.002
            ) as server:
                ids = [await server.create_session(seed=50 + i) for i in range(6)]

                async def drive(session_id, click):
                    for _ in range(2):
                        round_ = await server.recommend(session_id)
                        assert round_.presented
                        await server.feedback(session_id, click % len(round_.presented))

                await asyncio.gather(
                    *(drive(session_id, i) for i, session_id in enumerate(ids))
                )
                return engine, server.stats()

        engine, stats = asyncio.run(main())
        assert stats["engine"]["rounds_served"] == 12
        assert stats["engine"]["feedback_events"] == 12
        assert stats["dispatcher"]["requests_completed"] == 12
        # Concurrency was actually absorbed into multi-request batches.
        assert stats["dispatcher"]["batches_dispatched"] < 12
        assert stats["dispatcher"]["largest_batch"] >= 2

    def test_recommend_after_shutdown_raises(
        self, serving_catalog, serving_profile
    ):
        async def main():
            engine = make_engine(serving_catalog, serving_profile)
            server = AsyncRecommendationServer(engine)
            session_id = await server.create_session(seed=1)
            await server.shutdown()
            with pytest.raises(DispatcherClosedError):
                await server.recommend(session_id)

        asyncio.run(main())

    def test_unknown_session_error_reaches_only_its_caller(
        self, serving_catalog, serving_profile
    ):
        async def main():
            engine = make_engine(serving_catalog, serving_profile)
            async with AsyncRecommendationServer(
                engine, max_batch_size=3, max_wait=60.0
            ) as server:
                good = [await server.create_session(seed=3) for _ in range(2)]
                results = await asyncio.gather(
                    server.recommend(good[0]),
                    server.recommend("no-such-session"),
                    server.recommend(good[1]),
                    return_exceptions=True,
                )
                return results

        results = asyncio.run(main())
        assert results[0].presented and results[2].presented
        assert isinstance(results[1], SessionNotFoundError)


# ==================================================== async traffic simulator
class TestAsyncTrafficSimulator:
    def test_open_loop_run_with_arrivals_and_think_times(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        server = AsyncRecommendationServer(engine, max_batch_size=8, max_wait=0.002)
        spec = AsyncWorkloadSpec(
            num_sessions=10,
            rounds=2,
            identical_prefix=False,
            arrival_rate=5_000.0,
            think_time_mean=0.001,
        )
        report = AsyncTrafficSimulator(server, spec).run_sync()
        assert report.rounds_served == 20
        assert report.feedback_events == 20
        assert report.p95_request_latency_ms >= report.p50_request_latency_ms > 0
        assert report.dispatcher_stats["requests_completed"] == 20
        assert report.engine_stats["rounds_served"] == 20
        assert "sessions=10" in report.format()
        assert "request latency" in report.format()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AsyncWorkloadSpec(num_sessions=0)
        with pytest.raises(ValueError):
            AsyncWorkloadSpec(arrival_rate=0.0)
        with pytest.raises(ValueError):
            AsyncWorkloadSpec(think_time_mean=-0.1)

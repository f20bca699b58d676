"""Integration tests: telemetry wired through the serving stack.

Exercises the tentpole end to end: span trees for per-session, batched, and
process-shard requests (dispatcher admission → engine → pool fill → top-k
search → event-log append), alarm counters + structured trace events for
replay divergence and dispatcher shedding, per-shard fill counters, the
consolidated ``engine.observe()`` tree, and the guarantee that telemetry
never changes what is served.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.obs import InMemoryTraceSink, Telemetry
from repro.service import (
    AdaptationConfig,
    AsyncRecommendationServer,
    EngineConfig,
    EventLogStore,
    RecommendationEngine,
    ReplayDivergenceError,
)
from repro.service.eventlog import EVENT_FEEDBACK


@pytest.fixture
def serving_catalog() -> ItemCatalog:
    rng = np.random.default_rng(11)
    return ItemCatalog(rng.random((30, 3)))


@pytest.fixture
def serving_profile() -> AggregateProfile:
    return AggregateProfile(["sum", "avg", "max"])


def fast_elicitation_config(**overrides) -> ElicitationConfig:
    defaults = dict(
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
    defaults.update(overrides)
    return ElicitationConfig(**defaults)


def traced_telemetry(**overrides) -> Telemetry:
    """A keep-everything telemetry instance for deterministic assertions."""
    defaults = dict(sink=InMemoryTraceSink(), slow_ms=0.0, sample_every=1)
    defaults.update(overrides)
    return Telemetry(**defaults)


def make_engine(catalog, profile, telemetry=None, store=None, **config_overrides):
    config = EngineConfig(
        elicitation=fast_elicitation_config(), seed=1, **config_overrides
    )
    return RecommendationEngine(
        catalog, profile, config, store=store, telemetry=telemetry
    )


def span_names(trace: dict) -> list:
    return [span["name"] for span in trace["spans"]]


def children_of(trace: dict, span_id) -> list:
    return [s["name"] for s in trace["spans"] if s["parent_id"] == span_id]


# ============================================================ span-tree shape
class TestRequestSpanTrees:
    def test_per_session_request_trace(self, serving_catalog, serving_profile):
        telemetry = traced_telemetry()
        engine = make_engine(serving_catalog, serving_profile, telemetry)
        sid = engine.create_session()
        engine.recommend(sid)
        (trace,) = telemetry.drain_traces()
        assert trace["root"] == "engine.recommend"
        by_name = {s["name"]: s for s in trace["spans"]}
        root = by_name["engine.recommend"]
        # Root → provision (→ pool.fill) → search.topk → serve_round.
        assert children_of(trace, root["span_id"]) == [
            "engine.provision",
            "search.topk",
            "engine.serve_round",
        ]
        provision = by_name["engine.provision"]
        assert provision["attrs"]["sampled"] == 1
        assert children_of(trace, provision["span_id"]) == ["pool.fill"]
        # The shared block filled the pool: no MCMC chain, no seed rung.
        assert "chain_seed" not in by_name["pool.fill"]["attrs"]
        search = by_name["search.topk"]
        assert search["attrs"]["pools"] == 1
        assert search["attrs"]["rows"] >= 1
        assert search["attrs"]["items_accessed"] >= 1
        assert "pool_key" in by_name["engine.serve_round"]["attrs"]

    def test_an_mcmc_fill_span_names_its_chain_seed(
        self, serving_catalog, serving_profile
    ):
        telemetry = traced_telemetry()
        engine = make_engine(
            serving_catalog, serving_profile, telemetry, use_batch_sampler=False
        )
        engine.recommend(engine.create_session())
        (trace,) = telemetry.drain_traces()
        (fill,) = [s for s in trace["spans"] if s["name"] == "pool.fill"]
        assert fill["attrs"]["sampler"] == "MS"
        assert fill["attrs"]["chain_seed"] == "rejection"

    def test_batched_request_trace(self, serving_catalog, serving_profile, tmp_path):
        """recommend_many has recommend's tree: one span per stage, one
        serve_round per session, each with its event-log append."""
        telemetry = traced_telemetry()
        engine = make_engine(
            serving_catalog,
            serving_profile,
            telemetry,
            store=EventLogStore(str(tmp_path / "log")),
        )
        ids = [engine.create_session(seed=100 + i) for i in range(4)]
        engine.recommend_many(ids)
        (trace,) = telemetry.drain_traces()
        assert trace["root"] == "engine.recommend_many"
        by_name = {s["name"]: s for s in trace["spans"]}
        root = by_name["engine.recommend_many"]
        assert root["attrs"]["sessions"] == 4
        assert children_of(trace, root["span_id"]) == [
            "engine.provision",
            "search.topk",
        ] + ["engine.serve_round"] * 4
        # Four sessions, one shared empty-prefix pool: one build, one fill.
        provision = by_name["engine.provision"]
        assert provision["attrs"]["sessions"] == 4
        assert provision["attrs"]["sampled"] == 1
        assert children_of(trace, provision["span_id"]) == ["pool.fill"]
        search = by_name["search.topk"]
        assert search["attrs"]["pools"] == 1
        assert search["attrs"]["dedup_rate"] >= 0.0
        for serve in trace["spans"]:
            if serve["name"] == "engine.serve_round":
                assert children_of(trace, serve["span_id"]) == ["eventlog.append"]
        engine.event_log.close()

    def test_process_shard_request_trace_end_to_end(
        self, serving_catalog, serving_profile, tmp_path
    ):
        """The acceptance bar: dispatcher → engine → fill → search → log,
        for a process-shard request, with the fill's worker PID on its span."""
        telemetry = traced_telemetry()
        engine = make_engine(
            serving_catalog,
            serving_profile,
            telemetry,
            store=EventLogStore(str(tmp_path / "log")),
            pool_shards=2,
            pool_shard_backend="process",
        )

        async def drive():
            server = AsyncRecommendationServer(
                engine, max_batch_size=4, max_wait=0.01
            )
            async with server:
                ids = [
                    await server.create_session(seed=100 + i) for i in range(4)
                ]
                await asyncio.gather(*[server.recommend(s) for s in ids])

        asyncio.run(drive())
        traces = [
            t
            for t in telemetry.drain_traces()
            if t["root"] == "dispatcher.dispatch"
        ]
        assert traces, "no dispatcher-rooted trace captured"
        trace = traces[0]
        names = span_names(trace)
        for required in (
            "dispatcher.queue_wait",
            "engine.recommend_many",
            "pool.fill",
            "search.topk",
            "eventlog.append",
        ):
            assert required in names, f"missing span {required}"
        fills = [s for s in trace["spans"] if s["name"] == "pool.fill"]
        import os

        worker_pids = {s["attrs"].get("worker_pid") for s in fills}
        assert worker_pids and None not in worker_pids
        assert os.getpid() not in worker_pids  # fills ran out-of-process
        engine.close_repository()

    def test_telemetry_does_not_change_served_rounds(
        self, serving_catalog, serving_profile
    ):
        plain = make_engine(serving_catalog, serving_profile)
        traced = make_engine(serving_catalog, serving_profile, traced_telemetry())

        def drive(engine):
            presented = []
            ids = [engine.create_session(seed=50 + i) for i in range(3)]
            for _ in range(3):
                rounds = engine.recommend_many(ids)
                presented.append(
                    [[p.items for p in r.presented] for r in rounds]
                )
                for sid, r in zip(ids, rounds):
                    engine.feedback(sid, 0)
            return presented

        assert drive(plain) == drive(traced)


# ==================================================================== alarms
class TestAlarms:
    def test_replay_divergence_fires_alarm_and_trace_event(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = EventLogStore(str(tmp_path / "log"))
        engine = make_engine(serving_catalog, serving_profile, store=store)
        sid = engine.create_session()
        round_ = engine.recommend(sid)
        engine.feedback(sid, 0)
        engine.recommend(sid)
        store.close()

        # Rewrite the logged click to a package that was never presented,
        # then replay through a telemetry-enabled engine.
        reopened = EventLogStore(str(tmp_path / "log"))
        bogus = [max(max(p.items) for p in round_.presented) + 1]
        for record in reopened._records.values():
            for event in record.events:
                if event["type"] == EVENT_FEEDBACK:
                    event["clicked"] = bogus
        telemetry = traced_telemetry()
        restarted = make_engine(
            serving_catalog, serving_profile, telemetry, store=reopened
        )
        with pytest.raises(ReplayDivergenceError):
            restarted.recommend(sid)
        assert telemetry.alarm_count("replay_divergence") == 1
        alarm_spans = [
            s
            for t in telemetry.drain_traces()
            for s in t["spans"]
            if s["name"] == "alarm.replay_divergence"
        ]
        assert len(alarm_spans) == 1
        assert alarm_spans[0]["attrs"]["session_id"] == sid
        reopened.close()

    def test_dispatcher_shed_alarm(self, serving_catalog, serving_profile):
        telemetry = traced_telemetry()
        engine = make_engine(serving_catalog, serving_profile, telemetry)

        async def drive():
            server = AsyncRecommendationServer(
                engine,
                max_batch_size=64,
                max_wait=0.05,
                max_pending=1,
            )
            ids = [await server.create_session(seed=7 + i) for i in range(2)]
            results = await asyncio.gather(
                *[server.recommend(s) for s in ids], return_exceptions=True
            )
            await server.shutdown()
            return results

        results = asyncio.run(drive())
        assert telemetry.alarm_count("dispatcher_shed") == 1
        assert sum(isinstance(r, Exception) for r in results) == 1
        # The shed emitted its own always-kept single-span alarm trace.
        shed_traces = [
            t
            for t in telemetry.drain_traces()
            if t["root"] == "alarm.dispatcher_shed"
        ]
        assert len(shed_traces) == 1
        assert shed_traces[0]["kept_because"] == "alarm"

    def test_adaptation_ess_alarm_counter_exists(
        self, serving_catalog, serving_profile
    ):
        """The adapter holds the facade; a forced gate rejection counts."""
        telemetry = traced_telemetry()
        engine = make_engine(
            serving_catalog,
            serving_profile,
            telemetry,
            pool_adaptation=AdaptationConfig(),
        )
        assert engine.pool_adapter.telemetry is telemetry
        engine.pool_adapter.telemetry.alarm(
            "adaptation_ess_rejected", key="k", ess=1.0, required=10.0
        )
        assert telemetry.alarm_count("adaptation_ess_rejected") == 1


# =========================================================== metrics wiring
class TestMetricsWiring:
    def test_sharded_fill_counters(self, serving_catalog, serving_profile):
        telemetry = traced_telemetry()
        engine = make_engine(
            serving_catalog, serving_profile, telemetry, pool_shards=4
        )
        ids = [engine.create_session(seed=100 + i) for i in range(6)]
        for _ in range(2):
            rounds = engine.recommend_many(ids)
            for index, (sid, r) in enumerate(zip(ids, rounds)):
                engine.feedback(sid, index % len(r.presented))
        snap = engine.metrics_snapshot()
        fills_by_shard = snap["repro_pool_fills_total"]
        assert sum(fills_by_shard.values()) == engine.pool_repository.fills
        samples = snap["repro_pool_samples_filled_total"]
        assert sum(samples.values()) == sum(
            shard.samples_filled for shard in engine.pool_repository.shards
        )
        # Fill latency histograms observed once per fill.
        latency = snap["repro_pool_fill_seconds"]
        assert sum(h["count"] for h in latency.values()) == (
            engine.pool_repository.fills
        )
        engine.close_repository()

    def test_metrics_snapshot_mirrors_engine_stats(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile, traced_telemetry())
        sid = engine.create_session()
        engine.recommend(sid)
        engine.feedback(sid, 0)
        snap = engine.metrics_snapshot()
        stats = engine.stats()
        assert snap["repro_sessions_created"] == stats.sessions_created
        assert snap["repro_rounds_served"] == stats.rounds_served
        assert snap["repro_feedback_events"] == stats.feedback_events
        assert snap["repro_requests_total"] == {"api=recommend": 1.0}
        assert snap["repro_round_latency_seconds"]["count"] == 1

    def test_stats_as_dict_is_a_copy_of_every_field(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile, pool_shards=2)
        engine.recommend(engine.create_session())
        stats = engine.stats()
        plain = stats.as_dict()
        assert list(plain) == [f.name for f in dataclasses.fields(stats)]
        plain["topk_cache"].clear()
        plain["pool_repository"]["per_shard"][0]["fills"] = -1
        assert stats.topk_cache == engine.stats().topk_cache
        assert stats.pool_repository == engine.stats().pool_repository

    def test_observe_tree_consolidates_everything(
        self, serving_catalog, serving_profile
    ):
        telemetry = traced_telemetry()
        engine = make_engine(serving_catalog, serving_profile, telemetry)

        async def drive():
            server = AsyncRecommendationServer(engine, max_wait=0.001)
            async with server:
                sid = await server.create_session()
                await server.recommend(sid)
            return server

        server = asyncio.run(drive())
        tree = server.observe()
        assert set(tree) >= {"engine", "metrics", "telemetry", "dispatcher"}
        assert tree["engine"]["rounds_served"] == 1
        assert tree["dispatcher"]["requests_completed"] == 1
        assert tree["telemetry"]["enabled"] is True
        assert "repro_requests_total" in tree["metrics"]
        # Prometheus exposition renders from the same registry.
        assert "repro_rounds_served" in server.metrics_text()

    def test_disabled_engine_has_inert_telemetry(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session()
        engine.recommend(sid)
        assert engine.telemetry.enabled is False
        assert engine.telemetry.drain_traces() == []
        tree = engine.observe()
        assert tree["telemetry"]["enabled"] is False
        assert tree["engine"]["rounds_served"] == 1

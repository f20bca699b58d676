"""Tests for the fingerprint-partitioned pool repository and warm starts.

Covers the tentpole guarantees of the sharded pool service: consistent-hash
routing stability, per-shard LRU + pinning semantics, key-deterministic fills
(identical pools regardless of shard count, fill grouping, or backend —
including the process backend, whose fills run in worker processes),
bit-identical engine recommendations for 1 vs 4 shards, and the
WarmStartPlanner contract that cold sessions never sample.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.data.columnar import NumericRangePredicate
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.fillspec import (
    FillContext,
    FillSpec,
    PriorSpec,
    register_fill_context,
    register_sampler_builder,
)
from repro.sampling.fillspec import _SAMPLER_BUILDERS
from repro.sampling.rejection import RejectionSampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.service import (
    EngineConfig,
    InlineShardBackend,
    PoolFillJob,
    ProcessShardBackend,
    RecommendationEngine,
    ShardedPoolRepository,
    build_shard_backend,
    parse_shard_backend,
)

NUM_FEATURES = 3


def make_spec_factory(prior=None, sampler="rejection", seed_root=0):
    """A key-deterministic FillSpec factory (the engine's contract, in miniature)."""
    prior = prior or GaussianMixture.default_prior(NUM_FEATURES, rng=0)
    digest = register_fill_context(FillContext(prior=PriorSpec.from_mixture(prior)))

    def factory(key: str, constraints: ConstraintSet, count: int) -> FillSpec:
        return FillSpec.for_fill(
            key,
            constraints,
            count,
            sampler=sampler,
            seed_root=seed_root,
            context_digest=digest,
        )

    return factory


def make_pool(size=4):
    return SamplePool.unweighted(np.random.default_rng(0).random((size, NUM_FEATURES)))


def repo(**kwargs):
    defaults = dict(spec_factory=make_spec_factory(), num_shards=4, capacity=16)
    defaults.update(kwargs)
    return ShardedPoolRepository(**defaults)


# ==================================================================== routing
class TestConsistentHashing:
    def test_routing_is_deterministic_across_instances(self):
        a, b = repo(), repo()
        keys = [f"n40:key-{i}" for i in range(50)]
        assert [a.shard_for(k).index for k in keys] == [
            b.shard_for(k).index for k in keys
        ]

    def test_keys_spread_across_all_shards(self):
        repository = repo()
        keys = {f"n40:key-{i}" for i in range(200)}
        owners = {repository.shard_for(k).index for k in keys}
        assert owners == {0, 1, 2, 3}

    def test_resizing_moves_only_a_fraction_of_keys(self):
        """The consistent-hash property: N -> N+1 shards moves ~1/(N+1) keys."""
        keys = [f"n40:key-{i}" for i in range(400)]
        four = repo(num_shards=4)
        five = repo(num_shards=5)
        moved = sum(
            four.shard_for(k).index != five.shard_for(k).index for k in keys
        )
        assert moved / len(keys) < 0.45  # modulo hashing would move ~0.8

    def test_single_shard_routes_everything_to_shard_zero(self):
        repository = repo(num_shards=1)
        assert all(
            repository.shard_for(f"k{i}").index == 0 for i in range(20)
        )


# ============================================================ storage + pinning
class TestShardStorage:
    def test_get_put_routes_by_key(self):
        repository = repo()
        pool = make_pool()
        repository.put("a", pool)
        assert repository.get("a") is pool
        assert "a" in repository
        assert len(repository) == 1
        owner = repository.shard_for("a")
        assert owner.cache.stats.hits == 1

    def test_miss_counts_against_the_owning_shard(self):
        repository = repo()
        assert repository.get("nope") is None
        assert repository.shard_for("nope").cache.stats.misses == 1
        assert repository.stats.misses == 1

    def test_capacity_splits_across_shards(self):
        repository = repo(num_shards=4, capacity=8)
        assert all(shard.capacity == 2 for shard in repository.shards)

    def test_pinned_pools_survive_eviction_pressure(self):
        repository = repo(num_shards=1, capacity=2)
        hot = make_pool()
        repository.pin("hot", hot)
        for i in range(10):
            repository.put(f"cold-{i}", make_pool())
        assert repository.get("hot") is hot
        assert "hot" in repository.pinned_keys()

    def test_pin_promotes_an_existing_lru_entry(self):
        repository = repo(num_shards=1, capacity=2)
        pool = make_pool()
        repository.put("a", pool)
        repository.pin("a")
        for i in range(5):
            repository.put(f"b-{i}", make_pool())
        assert repository.get("a") is pool

    def test_pin_unknown_key_without_pool_raises(self):
        with pytest.raises(KeyError):
            repo().pin("missing")

    def test_pin_with_explicit_pool_lifts_the_lru_copy(self):
        """Review regression: pinning a key that is also LRU-cached must not
        leave a duplicate behind (evict() would half-work and len() double
        count)."""
        repository = repo(num_shards=1)
        lru_copy = make_pool()
        repository.put("a", lru_copy)
        pinned_copy = make_pool()
        repository.pin("a", pinned_copy)
        assert len(repository) == 1
        assert repository.get("a") is pinned_copy
        assert repository.evict("a")
        assert "a" not in repository
        assert len(repository) == 0

    def test_unpin_returns_the_pool_to_lru_management(self):
        repository = repo(num_shards=1, capacity=1)
        repository.pin("a", make_pool())
        repository.unpin("a")
        assert "a" not in repository.pinned_keys()
        repository.put("b", make_pool())  # evicts the now-unpinned "a"
        assert repository.peek("a") is None

    def test_evict_drops_pinned_and_unpinned_pools(self):
        repository = repo()
        repository.put("a", make_pool())
        repository.pin("b", make_pool())
        assert repository.evict("a")
        assert repository.evict("b")
        assert not repository.evict("a")
        assert len(repository) == 0

    def test_pinned_hits_count_as_cache_wins(self):
        repository = repo()
        pool = make_pool(size=7)
        repository.pin("a", pool)
        assert repository.get("a") is pool
        assert repository.stats.hits == 1
        assert repository.samples_saved == 7

    def test_zero_capacity_disables_storage_and_pinning(self):
        repository = repo(capacity=0)
        repository.put("a", make_pool())
        repository.pin("a", make_pool())
        assert repository.get("a") is None
        assert len(repository) == 0
        assert repository.pinned_keys() == []


# ===================================================================== fills
class TestFills:
    CONSTRAINTS = ConstraintSet(np.array([[1.0, 0.0, 0.0]]))

    def test_fill_one_is_deterministic_per_key(self):
        repository = repo()
        a = repository.fill_one("k", self.CONSTRAINTS, 12)
        b = repository.fill_one("k", self.CONSTRAINTS, 12)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_fills_are_independent_of_shard_count(self):
        jobs = [
            PoolFillJob(f"k{i}", self.CONSTRAINTS, 10) for i in range(8)
        ]
        one = repo(num_shards=1).fill_many(jobs)
        four = repo(num_shards=4).fill_many(jobs)
        assert set(one) == set(four)
        for key in one:
            np.testing.assert_array_equal(one[key].samples, four[key].samples)

    def test_fill_many_groups_per_shard(self):
        repository = repo()
        jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 5) for i in range(20)]
        pools = repository.fill_many(jobs)
        assert set(pools) == {job.key for job in jobs}
        assert repository.fill_batches == 1
        assert repository.multi_shard_fill_batches == 1
        assert sum(shard.fills for shard in repository.shards) == 20
        assert sum(shard.fills > 0 for shard in repository.shards) >= 2

    def test_fill_many_with_no_jobs_is_a_noop(self):
        repository = repo()
        assert repository.fill_many([]) == {}
        assert repository.fill_batches == 0

    def test_describe_reports_topology(self):
        repository = repo()
        repository.pin("a", make_pool())
        info = repository.describe()
        assert info["num_shards"] == 4
        assert info["backend"] == "inline"
        assert info["pinned"] == 1
        assert len(info["per_shard"]) == 4


# ============================================================== backend builder
class TestShardBackends:
    def test_build_by_name(self):
        assert build_shard_backend("inline", 4).name == "inline"

    def test_process_backend_by_name(self):
        backend = build_shard_backend("process", 4)
        assert backend.name == "process"
        assert backend.max_workers == 4
        backend.close()

    def test_worker_count_override_suffix(self):
        backend = build_shard_backend("process:2", 8)
        assert backend.max_workers == 2
        backend.close()
        backend = build_shard_backend("process:3", 8)
        assert backend.max_workers == 3
        backend.close()

    def test_unknown_name_rejected_with_the_valid_list(self):
        with pytest.raises(ValueError, match="inline.*process"):
            build_shard_backend("gpu", 4)
        with pytest.raises(ValueError, match="inline.*process"):
            parse_shard_backend("thread")
        with pytest.raises(ValueError, match="worker-count"):
            build_shard_backend("process:zero", 4)
        with pytest.raises(ValueError, match="worker-count"):
            build_shard_backend("process:0", 4)

    def test_parse_shard_backend(self):
        assert parse_shard_backend("inline") == ("inline", None)
        assert parse_shard_backend("process:6") == ("process", 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedPoolRepository(spec_factory=make_spec_factory(), num_shards=0)
        with pytest.raises(ValueError):
            ShardedPoolRepository(spec_factory=make_spec_factory(), capacity=-1)
        with pytest.raises(ValueError):
            ProcessShardBackend(max_workers=0)
        with pytest.raises(ValueError, match="required"):
            ShardedPoolRepository()


# ============================================================ process backend
class TestProcessShardBackend:
    CONSTRAINTS = ConstraintSet(np.array([[1.0, 0.0, 0.0]]))

    def test_matches_inline_results(self):
        jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 10) for i in range(8)]
        inline = repo(backend=InlineShardBackend()).fill_many(jobs)
        process_repo = repo(backend=ProcessShardBackend(max_workers=4))
        processed = process_repo.fill_many(jobs)
        assert set(inline) == set(processed)
        for key in inline:
            np.testing.assert_array_equal(
                inline[key].samples, processed[key].samples
            )
            np.testing.assert_array_equal(
                inline[key].weights, processed[key].weights
            )
        process_repo.close()

    def test_fills_run_in_worker_processes(self):
        process_repo = repo(backend=ProcessShardBackend(max_workers=2))
        jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 5) for i in range(6)]
        pools = process_repo.fill_many(jobs)
        worker_pids = {p.stats["fill_worker_pid"] for p in pools.values()}
        assert worker_pids  # every pool records where it was built
        assert os.getpid() not in worker_pids
        assert sum(shard.fills for shard in process_repo.shards) == 6
        process_repo.close()

    def test_worker_crash_recovers_via_retry(self, tmp_path):
        """First worker dies mid-fill; the retry on a fresh pool succeeds."""
        sentinel = tmp_path / "crashed-once"

        def crash_once_builder(spec, prior, rng):
            class CrashOnceSampler:
                def sample(self, count, constraints):
                    if not sentinel.exists():
                        sentinel.write_text("boom")
                        os._exit(13)  # simulate an OOM-kill / segfault
                    return RejectionSampler(prior, rng=rng).sample(
                        count, constraints
                    )

            return CrashOnceSampler()

        register_sampler_builder("crash-once", crash_once_builder)
        try:
            backend = ProcessShardBackend(max_workers=2, start_method="fork")
            repository = repo(
                spec_factory=make_spec_factory(sampler="crash-once"),
                backend=backend,
            )
            jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 5) for i in range(4)]
            pools = repository.fill_many(jobs)
            assert set(pools) == {job.key for job in jobs}
            assert backend.worker_restarts == 1
            assert backend.inline_fallbacks == 0
            # the retried fills still ran out-of-process
            assert os.getpid() not in {
                p.stats["fill_worker_pid"] for p in pools.values()
            }
            repository.close()
        finally:
            _SAMPLER_BUILDERS.pop("crash-once", None)

    def test_persistent_crash_falls_back_inline_without_poisoning(self):
        """Both attempts die → fills run inline; the next batch uses workers."""
        main_pid = os.getpid()

        def crash_in_workers_builder(spec, prior, rng):
            class CrashInWorkersSampler:
                def sample(self, count, constraints):
                    if os.getpid() != main_pid:
                        os._exit(13)
                    return RejectionSampler(prior, rng=rng).sample(
                        count, constraints
                    )

            return CrashInWorkersSampler()

        register_sampler_builder("crash-in-workers", crash_in_workers_builder)
        try:
            backend = ProcessShardBackend(max_workers=2, start_method="fork")
            repository = repo(
                spec_factory=make_spec_factory(sampler="crash-in-workers"),
                backend=backend,
            )
            jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 5) for i in range(4)]
            pools = repository.fill_many(jobs)
            assert set(pools) == {job.key for job in jobs}
            assert backend.worker_restarts == 2
            assert backend.inline_fallbacks == 1
            # inline fallback output is the same deterministic fill
            reference = repo().fill_many(jobs)
            for key in reference:
                np.testing.assert_array_equal(
                    reference[key].samples, pools[key].samples
                )
            # the shard is not poisoned: a healthy batch goes back out-of-process
            healthy_repo = repo(backend=backend)
            healthy = healthy_repo.fill_many(
                [PoolFillJob(f"h{i}", self.CONSTRAINTS, 5) for i in range(4)]
            )
            assert os.getpid() not in {
                p.stats["fill_worker_pid"] for p in healthy.values()
            }
            repository.close()
        finally:
            _SAMPLER_BUILDERS.pop("crash-in-workers", None)


# ======================================================== engine-level sharding
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


def make_engine(catalog, profile, elicitation=None, **config_overrides):
    config = EngineConfig(
        elicitation=elicitation or fast_elicitation_config(),
        seed=1,
        **config_overrides,
    )
    return RecommendationEngine(catalog, profile, config)


def run_heterogeneous(engine, num_sessions=6, rounds=3):
    """Drive distinct-prefix sessions batched; returns every presented list."""
    ids = [engine.create_session(seed=100 + i) for i in range(num_sessions)]
    presented = []
    for _round in range(rounds):
        rounds_ = engine.recommend_many(ids)
        presented.append(
            [[p.items for p in round_.presented] for round_ in rounds_]
        )
        for index, (sid, round_) in enumerate(zip(ids, rounds_)):
            engine.feedback(sid, index % len(round_.presented))
    return presented


class TestShardedEngineEquivalence:
    def test_four_shards_bit_identical_to_one_shard(
        self, serving_catalog, serving_profile
    ):
        """Sharding changes where fills run, never what is served."""
        one = make_engine(serving_catalog, serving_profile, pool_shards=1)
        four = make_engine(serving_catalog, serving_profile, pool_shards=4)
        assert run_heterogeneous(one) == run_heterogeneous(four)
        assert four.stats().pool_repository["multi_shard_fill_batches"] >= 1

    def test_four_process_shards_bit_identical_to_inline(
        self, serving_catalog, serving_profile
    ):
        """The ISSUE acceptance bar: process-backed shards serve the same rounds.

        Fills demonstrably execute in worker processes (distinct PIDs), yet
        every presented list matches the unsharded inline engine exactly.
        """
        inline = make_engine(serving_catalog, serving_profile, pool_shards=1)
        process = make_engine(
            serving_catalog,
            serving_profile,
            pool_shards=4,
            pool_shard_backend="process",
        )
        assert run_heterogeneous(inline) == run_heterogeneous(process)
        worker_pids = set()
        for shard in process.pool_repository.shards:
            for key in shard.keys():
                pid = shard.peek(key).stats.get("fill_worker_pid")
                if pid is not None:
                    worker_pids.add(pid)
        assert worker_pids  # fills actually left the engine process
        assert os.getpid() not in worker_pids
        repo_stats = process.stats().pool_repository
        assert repo_stats["backend"] == "process"
        assert repo_stats["batches_dispatched"] >= 1
        assert repo_stats["worker_restarts"] == 0
        assert repo_stats["inline_fallbacks"] == 0
        process.close_repository()
        inline.close_repository()

    def test_engine_accepts_worker_count_suffix(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(
            serving_catalog,
            serving_profile,
            pool_shards=4,
            pool_shard_backend="process:2",
        )
        assert engine.pool_repository.backend.max_workers == 2
        engine.close_repository()
        with pytest.raises(ValueError, match="valid backends"):
            make_engine(
                serving_catalog, serving_profile, pool_shard_backend="mpi"
            )

    def test_fill_shard_plan_reports_pool_missing_sessions(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile, pool_shards=4)
        ids = [engine.create_session(seed=100 + i) for i in range(4)]
        plan = engine.fill_shard_plan(ids)
        # every cold session targets the (missing) empty-prefix pool, which
        # exactly one shard owns
        assert set(plan) == set(ids)
        assert len(set(plan.values())) == 1
        engine.recommend_many(ids)
        # pools are now live/pending: nothing left to plan
        assert engine.fill_shard_plan(ids) == {}
        # unknown sessions are omitted, never an error (planning is advisory)
        assert engine.fill_shard_plan(["ghost"]) == {}

    def test_sharded_batched_matches_sharded_serial(
        self, serving_catalog, serving_profile
    ):
        batched = make_engine(serving_catalog, serving_profile, pool_shards=4)
        serial = make_engine(serving_catalog, serving_profile, pool_shards=4)
        ids_b = [batched.create_session(seed=4) for _ in range(3)]
        ids_s = [serial.create_session(seed=4) for _ in range(3)]
        rounds_b = batched.recommend_many(ids_b)
        rounds_s = [serial.recommend(sid) for sid in ids_s]
        assert [[p.items for p in r.presented] for r in rounds_b] == [
            [p.items for p in r.presented] for r in rounds_s
        ]

    def test_refill_after_eviction_reproduces_the_pool(
        self, serving_catalog, serving_profile
    ):
        """Key-derived fill seeds: an evicted pool rebuilds bit-identically."""
        engine = make_engine(serving_catalog, serving_profile, pool_shards=2)
        a = engine.create_session(seed=5)
        engine.recommend(a)
        key = engine.sessions.acquire(a).pool_key
        first = engine.pool_repository.peek(key).samples.copy()
        engine.pool_repository.evict(key)
        b = engine.create_session(seed=6)
        engine.recommend(b)  # same empty-prefix fingerprint: refills the key
        np.testing.assert_array_equal(
            engine.pool_repository.peek(key).samples, first
        )


# ================================================================ warm start
class TestWarmStart:
    def _warm_engine(self, catalog, profile, first_clicks=2, **overrides):
        engine = make_engine(
            catalog,
            profile,
            elicitation=fast_elicitation_config(num_random=0),
            pool_shards=4,
            **overrides,
        )
        engine.warm_start(first_clicks)
        return engine

    def test_cold_sessions_never_sample(self, serving_catalog, serving_profile):
        engine = self._warm_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=5)
        engine.recommend(sid)
        engine.feedback(sid, 0)  # click a recommended package
        engine.recommend(sid)
        stats = engine.stats()
        assert stats.pools_sampled == 0
        assert stats.pools_maintained == 0
        assert stats.pools_warmed == 3  # empty prefix + 2 first-click pools
        assert stats.pool_cache["hits"] >= 2

    def test_warm_topk_list_matches_session_compute(
        self, serving_catalog, serving_profile
    ):
        warm = self._warm_engine(serving_catalog, serving_profile)
        cold = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=0),
            pool_shards=4,
        )
        rw = warm.recommend(warm.create_session(seed=5))
        rc = cold.recommend(cold.create_session(seed=5))
        assert [p.items for p in rw.presented] == [p.items for p in rc.presented]
        assert warm.stats().topk_cache["hits"] == 1  # served from the warm list
        assert cold.stats().topk_cache["hits"] == 0

    def test_warm_pools_are_pinned_against_eviction(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(
            serving_catalog, serving_profile, pool_cache_size=4
        )
        warmed = set(engine.pool_repository.pinned_keys())
        assert len(warmed) == 3
        run_heterogeneous(engine, num_sessions=6, rounds=2)  # eviction pressure
        assert warmed <= set(engine.pool_repository.pinned_keys())

    def test_every_first_click_yields_a_distinct_warm_pool(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(serving_catalog, serving_profile, first_clicks=2)
        sids = [engine.create_session(seed=20 + i) for i in range(2)]
        for index, sid in enumerate(sids):
            engine.recommend(sid)
            engine.feedback(sid, index)  # click choice = recommended[index]
            engine.recommend(sid)
        assert engine.stats().pools_sampled == 0

    def test_warm_start_zero_warms_only_the_empty_prefix_pool(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(serving_catalog, serving_profile, first_clicks=0)
        assert engine.stats().pools_warmed == 1

    def test_exploration_configs_skip_unreachable_first_click_pools(
        self, serving_catalog, serving_profile
    ):
        """Review regression: with num_random > 0 every real first click
        includes preferences against private exploration packages, so no
        enumerated first-click fingerprint can ever be hit — the planner
        must warm only the empty-prefix pool instead of pinning dead
        weight."""
        engine = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=2),
            pool_shards=4,
        )
        report = engine.warm_start(first_clicks=2)
        assert report.first_clicks_skipped
        assert report.first_click_sets == 0
        assert engine.stats().pools_warmed == 1
        assert len(engine.pool_repository.pinned_keys()) == 1
        # The empty-prefix warm pool is still a genuine win for round one.
        engine.recommend(engine.create_session(seed=5))
        assert engine.stats().pools_sampled == 0

    def test_rewarming_after_traffic_does_not_duplicate_pools(
        self, serving_catalog, serving_profile
    ):
        """warm_start() on an engine whose caches already hold the hot pools
        must pin them in place, not double-store them."""
        engine = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=0),
            pool_shards=4,
        )
        engine.recommend(engine.create_session(seed=5))  # caches empty-prefix
        entries_before = len(engine.pool_repository)
        report = engine.warm_start(first_clicks=0)
        assert report.pools_filled == 0  # reused the cached pool
        assert len(engine.pool_repository) == entries_before

    def test_warm_round_respects_the_catalog_predicate(self):
        """The warm top-k list is searched over eligible items only, like a
        cold session's: a warmed engine serves no ineligible item."""
        catalog = ItemCatalog(np.random.default_rng(3).random((120, 3)))
        profile = AggregateProfile(["sum", "avg", "max"])
        predicate = NumericRangePredicate(0, high=0.5)
        config = EngineConfig(
            elicitation=ElicitationConfig(
                num_samples=32, k=3, max_package_size=2, num_random=0
            ),
            seed=4,
        )
        rounds = []
        for warm in (False, True):
            engine = RecommendationEngine(
                catalog, profile, config, catalog_predicate=predicate
            )
            if warm:
                engine.warm_start()
            rounds.append(engine.recommend(engine.create_session(seed=11)))
        eligible = predicate.eligible_mask(catalog)
        cold, warmed = rounds
        assert all(eligible[list(p.items)].all() for p in warmed.presented)
        assert [p.items for p in warmed.presented] == [
            p.items for p in cold.presented
        ]

    def test_warm_start_requires_a_pool_cache(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=0)
        with pytest.raises(ValueError, match="pool_cache_size"):
            engine.warm_start(1)

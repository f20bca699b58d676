"""Tests for the online serving engine (repro.service) and its load generator.

Covers the satellite edge cases called out for the serving subsystem: pool
cache hit/miss accounting and LRU eviction, session TTL expiry, LRU swap-out
with transparent restore, and the snapshot → restore → identical
recommendation round-trip — plus the batched sampler and the fingerprint
keying everything.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.service import (
    AdaptationConfig,
    EngineConfig,
    JsonSessionStore,
    LruCache,
    MemorySessionStore,
    RecommendationEngine,
    SamplePoolCache,
    SessionExpiredError,
    SessionNotFoundError,
    SqliteSessionStore,
)
from repro.simulation.traffic import TrafficSimulator, WorkloadSpec
from repro.topk.package_search import TopKPackageSearcher


class FakeClock:
    """A manually advanced monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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


def make_engine(catalog, profile, clock=None, store=None, **config_overrides):
    config = EngineConfig(
        elicitation=fast_elicitation_config(), seed=1, **config_overrides
    )
    kwargs = {"store": store}
    if clock is not None:
        kwargs["clock"] = clock
    return RecommendationEngine(catalog, profile, config, **kwargs)


def presented_items(round_):
    return [p.items for p in round_.presented]


# ================================================================ fingerprint
class TestConstraintFingerprint:
    def test_empty_sets_share_a_fingerprint(self):
        a = ConstraintSet.empty(4)
        b = ConstraintSet.empty(4)
        assert a.fingerprint() == b.fingerprint()

    def test_row_order_is_canonicalised(self):
        d1 = np.array([[1.0, -0.5], [0.25, 0.75]])
        d2 = d1[::-1].copy()
        assert ConstraintSet(d1).fingerprint() == ConstraintSet(d2).fingerprint()

    def test_different_directions_differ(self):
        a = ConstraintSet(np.array([[1.0, 0.0]]))
        b = ConstraintSet(np.array([[0.0, 1.0]]))
        assert a.fingerprint() != b.fingerprint()

    def test_dimension_is_part_of_the_key(self):
        assert ConstraintSet.empty(3).fingerprint() != ConstraintSet.empty(4).fingerprint()

    def test_negative_zero_is_normalised(self):
        a = ConstraintSet(np.array([[0.0, 1.0]]))
        b = ConstraintSet(np.array([[-0.0, 1.0]]))
        assert a.fingerprint() == b.fingerprint()


class TestConeOncePerClick:
    """An engine derives each distinct click history's cone once.

    The engine's evaluator memoizes cones by click history, so a session
    that reaches a history another session already built neither reduces
    its preferences nor fingerprints the cone again.
    """

    @staticmethod
    def _count_derivations(monkeypatch):
        """Lists that grow by one per cone fingerprinted and per cone built."""
        import repro.sampling.base as base

        derived = []
        blake2b = base.hashlib.blake2b

        class CountingHashlib:
            @staticmethod
            def blake2b(*args, **kwargs):
                derived.append(1)
                return blake2b(*args, **kwargs)

        built = []
        from_store = ConstraintSet.from_store.__func__

        def counting_from_store(cls, store, reduced=True):
            built.append(store)
            return from_store(cls, store, reduced)

        monkeypatch.setattr(base, "hashlib", CountingHashlib)
        monkeypatch.setattr(
            ConstraintSet, "from_store", classmethod(counting_from_store)
        )
        return derived, built

    @pytest.mark.parametrize("pool_shards", [1, 4])
    def test_recommend_many_derives_each_fingerprint_once(
        self, serving_catalog, serving_profile, monkeypatch, pool_shards
    ):
        engine = make_engine(serving_catalog, serving_profile, pool_shards=pool_shards)
        ids = [engine.create_session(seed=5) for _ in range(4)]
        # One warm-up session walks round 1 -> click -> round 2, so every
        # cone, pool and top-k list the others need is already built.
        engine.recommend(ids[0])
        engine.feedback(ids[0], 0)
        engine.recommend(ids[0])

        derived, built = self._count_derivations(monkeypatch)
        before = engine.stats()
        engine.recommend_many(ids[1:])
        for session_id in ids[1:]:
            engine.feedback(session_id, 0)
        rounds = engine.recommend_many(ids[1:])
        after = engine.stats()
        assert all(round_.presented for round_ in rounds)
        assert after.pool_cache["misses"] == before.pool_cache["misses"]
        assert after.pools_built == before.pools_built
        assert derived == [] and built == []
        cone = engine.sessions.peek(ids[0]).recommender.constraints
        for session_id in ids[1:]:
            assert engine.sessions.peek(session_id).recommender.constraints is cone

        # Without a new click nothing is derived again.
        engine.recommend_many(ids[1:])
        assert derived == [] and built == []

    def test_distinct_histories_derive_one_cone_each(
        self, serving_catalog, serving_profile, monkeypatch
    ):
        engine = make_engine(serving_catalog, serving_profile)
        ids = [engine.create_session(seed=5) for _ in range(4)]
        # One seed: every session is shown the same first round, and
        # clicking a different package of it gives each its own history.
        engine.recommend_many(ids)
        derived, built = self._count_derivations(monkeypatch)
        for index, session_id in enumerate(ids):
            engine.feedback(session_id, index)
        engine.recommend_many(ids)
        assert len(derived) == len(ids)
        assert len(built) == len(ids)


# ==================================================================== caches
class TestLruCache:
    def test_hit_miss_and_eviction_accounting(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b": "a" was refreshed by the get above
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_zero_capacity_disables_the_cache(self):
        cache = LruCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_sample_pool_cache_counts_saved_samples(self):
        cache = SamplePoolCache(maxsize=4)
        pool = SamplePool.unweighted(np.zeros((7, 2)))
        cache.put("k", pool)
        assert cache.get("k") is pool
        assert cache.samples_saved == 7

    def test_sample_pool_cache_rejects_non_pools(self):
        cache = SamplePoolCache(maxsize=4)
        with pytest.raises(TypeError):
            cache.put("k", [1, 2, 3])


# ============================================================== batch sampler
class TestBatchRejectionSampler:
    def test_pools_are_valid_and_sized(self):
        prior = GaussianMixture.default_prior(3, rng=0)
        sampler = BatchRejectionSampler(prior, rng=0, block_size=512)
        sets = [
            ConstraintSet.empty(3),
            ConstraintSet(np.array([[1.0, 0.0, 0.0]])),
            ConstraintSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
        ]
        pools = sampler.sample_many(sets, [20, 30, 40])
        assert [p.size for p in pools] == [20, 30, 40]
        for constraints, pool in zip(sets, pools):
            assert constraints.valid_mask(pool.samples).all()

    def test_scalar_count_broadcasts(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        sampler = BatchRejectionSampler(prior, rng=0, block_size=256)
        pools = sampler.sample_many([ConstraintSet.empty(2)] * 3, 10)
        assert [p.size for p in pools] == [10, 10, 10]

    def test_single_sample_api_matches_abc(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        sampler = BatchRejectionSampler(prior, rng=0, block_size=256)
        pool = sampler.sample(15, ConstraintSet.empty(2))
        assert pool.size == 15

    def test_mcmc_fallback_fills_tiny_regions(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        sampler = BatchRejectionSampler(prior, rng=0, block_size=64, max_blocks=1)
        # A thin wedge around +x the single small block will surely underfill.
        tight = ConstraintSet(
            np.array([[1.0, 0.0], [0.02, -1.0], [0.02, 1.0]])
        )
        pool = sampler.sample(25, tight)
        assert pool.size == 25
        assert tight.valid_mask(pool.samples).all()


# ============================================================== engine basics
class TestEngineBasics:
    def test_request_response_loop(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session()
        round_ = engine.recommend(session_id)
        assert len(round_.recommended) == 2
        added = engine.feedback(session_id, 0)
        assert added >= 0
        assert engine.close(session_id)
        with pytest.raises(SessionNotFoundError):
            engine.recommend(session_id)

    def test_feedback_by_index_matches_feedback_by_package(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        a = engine.create_session(seed=3)
        b = engine.create_session(seed=3)
        engine.recommend(a)
        round_b = engine.recommend(b)
        engine.feedback(a, 1)
        engine.feedback(b, round_b.presented[1])
        assert presented_items(engine.recommend(a)) == presented_items(
            engine.recommend(b)
        )

    def test_unknown_session_raises(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        with pytest.raises(SessionNotFoundError):
            engine.recommend("nope")

    def test_duplicate_session_id_rejected(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        engine.create_session(session_id="u1")
        with pytest.raises(ValueError):
            engine.create_session(session_id="u1")

    def test_feedback_requires_a_served_round(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session()
        with pytest.raises(ValueError):
            engine.feedback(session_id, 0)


# ======================================================== shared pool caching
class TestPoolSharing:
    def test_identical_prefix_sessions_share_one_pool(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        a = engine.create_session(seed=7)
        b = engine.create_session(seed=7)
        engine.recommend(a)
        stats_after_first = engine.stats()
        assert stats_after_first.pool_cache["misses"] == 1
        engine.recommend(b)
        stats = engine.stats()
        assert stats.pool_cache["hits"] >= 1
        assert stats.pool_cache["misses"] == 1  # second session never sampled
        assert stats.pools_sampled == 1

    def test_pool_cache_eviction_is_bounded(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=1)
        a = engine.create_session(seed=1)
        engine.recommend(a)
        engine.feedback(a, 0)
        engine.recommend(a)  # new fingerprint evicts the empty-prefix pool
        stats = engine.stats()
        assert stats.pool_cache["evictions"] >= 1
        assert len(engine.pool_repository) == 1

    def test_maintenance_reuses_surviving_samples_on_miss(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session(seed=2)
        engine.recommend(session_id)
        engine.feedback(session_id, 0)
        engine.recommend(session_id)
        stats = engine.stats()
        assert stats.pools_maintained >= 1
        # The maintained pool must satisfy the updated constraint set.
        entry = engine.sessions.acquire(session_id)
        pool = entry.recommender.sample_pool()
        constraints = entry.recommender.constraints
        assert constraints.valid_mask(pool.samples).all()

    def test_disabled_sharing_keeps_sessions_independent(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(
            serving_catalog,
            serving_profile,
            pool_cache_size=0,
            topk_cache_size=0,
            use_batch_sampler=False,
        )
        a = engine.create_session(seed=7)
        b = engine.create_session(seed=7)
        ra = engine.recommend(a)
        rb = engine.recommend(b)
        # Same seeds still mean identical behaviour — just without sharing.
        assert presented_items(ra) == presented_items(rb)
        stats = engine.stats()
        assert stats.pool_cache["hits"] == 0
        assert stats.pool_cache["misses"] == 0
        assert stats.pool_cache["puts"] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"pool_shards": 4},
            {"partial_refill": True, "refill_psi": 0.2},
            {"topk_cache_size": 2},
            {"pool_cache_size": 1},
            {"pool_adaptation": AdaptationConfig()},
        ],
        ids=[
            "default",
            "shards",
            "partial-refill",
            "tiny-topk-cache",
            "tiny-pool-cache",
            "adaptation",
        ],
    )
    def test_batched_recommend_many_matches_serial(
        self, serving_catalog, serving_profile, overrides
    ):
        """One call per session or one call for all: the same rounds.

        Sessions click different packages, so every round after the first
        serves several distinct pools.  The walk is exact: a capped walk may
        legitimately differ when the pools it shares differ.
        """
        config = EngineConfig(
            elicitation=fast_elicitation_config(
                search_beam_width=None, search_items_cap=None
            ),
            seed=1,
            **overrides,
        )

        def drive(batched):
            engine = RecommendationEngine(serving_catalog, serving_profile, config)
            ids = [engine.create_session(seed=4 + i) for i in range(3)]
            presented = []
            for round_index in range(3):
                if batched:
                    rounds = engine.recommend_many(ids)
                else:
                    rounds = [engine.recommend(sid) for sid in ids]
                presented.append([presented_items(r) for r in rounds])
                for index, (sid, round_) in enumerate(zip(ids, rounds)):
                    engine.feedback(sid, (round_index + index) % len(round_.presented))
            return presented

        assert drive(batched=False) == drive(batched=True)

    def test_tiny_pool_cache_builds_each_pool_once_per_batch(
        self, serving_catalog, serving_profile
    ):
        """A pool built for a batch reaches its session even when the next
        build evicts it from a one-slot repository."""
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=1)
        ids = [engine.create_session(seed=4 + i) for i in range(3)]
        rounds = engine.recommend_many(ids)
        for index, (sid, round_) in enumerate(zip(ids, rounds)):
            engine.feedback(sid, index)
        fingerprints = {
            engine.sessions.peek(sid).recommender.constraints.fingerprint()
            for sid in ids
        }
        assert len(fingerprints) == 3
        fills = engine.pool_repository.fills
        built = engine.stats().pools_built
        engine.recommend_many(ids)
        assert engine.pool_repository.fills - fills == 3
        assert engine.stats().pools_built - built == 3


# ========================================== across-session search batching
class TestAcrossSessionSearchBatching:
    """The search stage's one shared walk over every pool missing a list."""

    def _exact_engine(self, catalog, profile, **engine_overrides):
        """An engine with *exact* search settings: a finite beam pools its
        budget over the batch, which is the one legitimate divergence from
        per-pool search, so equivalence tests run beam- and cap-free."""
        config = EngineConfig(
            elicitation=fast_elicitation_config(
                search_beam_width=None, search_items_cap=None
            ),
            seed=1,
            **engine_overrides,
        )
        return RecommendationEngine(catalog, profile, config)

    def _heterogeneous_round(self, engine, num_sessions=5):
        """Sessions with distinct feedback prefixes, ready for round 2."""
        ids = [engine.create_session(seed=100 + i) for i in range(num_sessions)]
        rounds = engine.recommend_many(ids)
        for index, (session_id, round_) in enumerate(zip(ids, rounds)):
            engine.feedback(session_id, index % len(round_.presented))
        return ids

    def test_prefetched_ranked_lists_match_per_session_recompute(
        self, serving_catalog, serving_profile
    ):
        """Exactness: the shared walk's ranked list per pool must equal what
        the session would compute for itself on the same pool."""
        engine = self._exact_engine(serving_catalog, serving_profile)
        ids = self._heterogeneous_round(engine)
        rounds = engine.recommend_many(ids)
        assert engine.stats().topk_batched_pools >= 2
        for session_id, round_ in zip(ids, rounds):
            recommender = engine.sessions.acquire(session_id).recommender
            expected = recommender.current_top_k()
            assert [p.items for p in round_.recommended] == [
                p.items for p in expected
            ]

    def test_topk_prefetch_counts_one_honest_miss_per_pool(
        self, serving_catalog, serving_profile
    ):
        """A ranked list the walk computed is a miss for the session that
        caused it; only the sessions sharing it count hits."""
        engine = make_engine(serving_catalog, serving_profile)
        ids = [engine.create_session(seed=4) for _ in range(3)]
        engine.recommend_many(ids)
        stats = engine.stats()
        assert stats.topk_batched_pools == 1  # one shared empty-prefix pool
        assert stats.topk_cache["misses"] == 1
        assert stats.topk_cache["hits"] == 2

    def test_prefetch_skips_pools_with_cached_topk(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        ids = [engine.create_session(seed=4) for _ in range(3)]
        engine.recommend_many(ids)
        batched_before = engine.stats().topk_batched_pools
        more = [engine.create_session(seed=4) for _ in range(2)]
        engine.recommend_many(more)  # same empty-prefix pool: already cached
        assert engine.stats().topk_batched_pools == batched_before

    def test_disabled_topk_cache_disables_prefetch(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile, topk_cache_size=0)
        ids = self._heterogeneous_round(engine)
        rounds = engine.recommend_many(ids)
        assert len(rounds) == len(ids)
        assert engine.stats().topk_batched_pools == 0

    def test_prefetch_respects_a_tiny_topk_cache(
        self, serving_catalog, serving_profile
    ):
        """More distinct pools than cache slots: every session still gets the
        ranked list of its own pool, although the cache keeps only two."""
        engine = self._exact_engine(
            serving_catalog, serving_profile, topk_cache_size=2
        )
        ids = self._heterogeneous_round(engine)  # 5 distinct pools
        rounds = engine.recommend_many(ids)
        assert len(rounds) == len(ids)
        for session_id, round_ in zip(ids, rounds):
            recommender = engine.sessions.acquire(session_id).recommender
            assert [p.items for p in round_.recommended] == [
                p.items for p in recommender.current_top_k()
            ]


# ========================================================== session lifecycle
class TestSessionLifecycle:
    def test_ttl_expiry(self, serving_catalog, serving_profile):
        clock = FakeClock()
        engine = make_engine(
            serving_catalog, serving_profile, clock=clock, session_ttl_seconds=10.0
        )
        session_id = engine.create_session()
        engine.recommend(session_id)
        clock.advance(5.0)
        engine.recommend(session_id)  # touch keeps it alive
        clock.advance(10.5)
        with pytest.raises(SessionExpiredError):
            engine.recommend(session_id)
        assert engine.stats().sessions_expired == 1

    def test_ttl_sweep_expires_idle_sessions(self, serving_catalog, serving_profile):
        clock = FakeClock()
        engine = make_engine(
            serving_catalog, serving_profile, clock=clock, session_ttl_seconds=10.0
        )
        engine.create_session(session_id="idle")
        clock.advance(20.0)
        engine.create_session(session_id="fresh")  # creation sweeps the table
        assert engine.stats().sessions_expired == 1
        assert engine.stats().sessions_active == 1

    def test_lru_swap_out_and_transparent_restore(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = JsonSessionStore(str(tmp_path / "sessions"))
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        a = engine.create_session(seed=5)
        engine.recommend(a)
        engine.feedback(a, 0)
        expected_next = engine.snapshot(a)  # state we must come back to
        engine.create_session(seed=6)  # evicts a to the store
        assert engine.stats().sessions_swapped_out >= 1
        assert a in store.list_ids()
        ra2 = engine.recommend(a)  # transparently restored (evicting b)
        assert engine.stats().sessions_restored >= 1
        # The restored session continues from its exact pre-eviction state.
        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(expected_next)
        assert presented_items(ra2) == presented_items(fresh.recommend(a))
        assert ra2.recommended  # sanity: non-empty rounds
        engine.close(a)
        assert a not in store.list_ids()

    def test_lru_without_store_drops_sessions(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile, max_active_sessions=1)
        a = engine.create_session()
        engine.create_session()
        with pytest.raises(SessionNotFoundError):
            engine.recommend(a)


# ========================================================== snapshot/restore
class TestSnapshotRestore:
    def run_rounds(self, engine, session_id, rounds=2):
        for _ in range(rounds):
            engine.recommend(session_id)
            engine.feedback(session_id, 0)

    def test_round_trip_identical_recommendation(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session(seed=9)
        self.run_rounds(engine, session_id)
        snapshot = engine.snapshot(session_id)
        json.dumps(snapshot)  # payload must be pure JSON
        original_round = engine.recommend(session_id)

        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(snapshot)
        restored_round = fresh.recommend(session_id)
        assert presented_items(original_round) == presented_items(restored_round)

    def test_restored_session_keeps_counters(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session(seed=9)
        self.run_rounds(engine, session_id, rounds=3)
        snapshot = engine.snapshot(session_id)
        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(snapshot)
        entry = fresh.sessions.acquire(session_id)
        assert entry.recommender.rounds_presented == 3
        assert entry.recommender.clicks_received == 3
        assert entry.recommender.num_feedback_preferences > 0

    def test_restore_rejects_unknown_versions(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session()
        snapshot = engine.snapshot(session_id)
        snapshot["version"] = 99
        with pytest.raises(ValueError):
            engine.restore(snapshot)

    def test_restore_refuses_to_clobber_by_default(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        session_id = engine.create_session()
        snapshot = engine.snapshot(session_id)
        with pytest.raises(ValueError):
            engine.restore(snapshot)
        engine.restore(snapshot, replace_existing=True)
        engine.recommend(session_id)


# ================================================================== stores
class TestSessionStores:
    PAYLOAD = {"version": 1, "value": [1, 2, 3]}

    @pytest.mark.parametrize("backend", ["memory", "json", "sqlite"])
    def test_round_trip(self, backend, tmp_path):
        store = {
            "memory": lambda: MemorySessionStore(),
            "json": lambda: JsonSessionStore(str(tmp_path / "j")),
            "sqlite": lambda: SqliteSessionStore(str(tmp_path / "s.sqlite")),
        }[backend]()
        assert store.load("x") is None
        store.save("x", self.PAYLOAD)
        assert store.load("x") == self.PAYLOAD
        assert store.list_ids() == ["x"]
        assert "x" in store
        assert store.delete("x")
        assert not store.delete("x")
        assert store.load("x") is None

    @pytest.mark.parametrize("backend", ["memory", "json", "sqlite"])
    def test_pool_table_round_trip(self, backend, tmp_path):
        store = {
            "memory": lambda: MemorySessionStore(),
            "json": lambda: JsonSessionStore(str(tmp_path / "j")),
            "sqlite": lambda: SqliteSessionStore(str(tmp_path / "s.sqlite")),
        }[backend]()
        payload = {"samples": [[0.1, 0.2]], "weights": [1.0]}
        assert store.load_pool("n40:abc") is None
        store.save_pool("n40:abc", payload)
        assert store.load_pool("n40:abc") == payload
        assert store.list_pool_keys() == ["n40:abc"]
        # Pool payloads live in their own namespace, apart from sessions.
        assert store.list_ids() == []
        assert store.total_bytes() > 0
        assert store.delete_pool("n40:abc")
        assert not store.delete_pool("n40:abc")

    def test_total_bytes_counts_sessions_and_pools(self, tmp_path):
        store = JsonSessionStore(str(tmp_path / "j"))
        store.save("s", {"n": 1})
        sessions_only = store.total_bytes()
        store.save_pool("k", {"samples": [[0.0] * 8] * 8, "weights": [1.0] * 8})
        assert store.total_bytes() > sessions_only

    def test_sqlite_uses_wal_mode(self, tmp_path):
        store = SqliteSessionStore(str(tmp_path / "wal.sqlite"))
        mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode.lower() == "wal"

    def test_json_store_overwrites_atomically(self, tmp_path):
        store = JsonSessionStore(str(tmp_path / "j"))
        store.save("x", {"n": 1})
        store.save("x", {"n": 2})
        assert store.load("x") == {"n": 2}
        assert store.list_ids() == ["x"]


# =========================================================== search_many dedup
class TestSearchMany:
    def test_duplicates_share_one_search(self, serving_catalog, serving_profile):
        from repro.core.packages import PackageEvaluator

        evaluator = PackageEvaluator(serving_catalog, serving_profile, 2)
        searcher = TopKPackageSearcher(evaluator, beam_width=60, max_items_accessed=25)
        weights = np.array([[0.5, 0.2, -0.1], [0.5, 0.2, -0.1], [0.1, 0.9, 0.3]])
        results = searcher.search_many(weights, 2)
        assert len(results) == 3
        assert results[0] is results[1]  # deduplicated rows share the result
        individual = searcher.search(weights[2], 2)
        assert [p.items for p in results[2].packages] == [
            p.items for p in individual.packages
        ]

    def test_empty_matrix_gives_no_results(self, serving_catalog, serving_profile):
        from repro.core.packages import PackageEvaluator

        evaluator = PackageEvaluator(serving_catalog, serving_profile, 2)
        searcher = TopKPackageSearcher(evaluator)
        assert searcher.search_many(np.zeros((0, 3)), 2) == []


# ============================================================ traffic harness
class TestTrafficSimulator:
    def test_identical_prefix_load_reports_cache_wins(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        report = TrafficSimulator(
            engine, WorkloadSpec(num_sessions=6, rounds=2, identical_prefix=True)
        ).run()
        assert report.rounds_served == 12
        assert report.feedback_events == 12
        assert report.sessions_per_sec > 0
        assert report.engine_stats["pool_cache"]["hit_rate"] > 0.5
        text = report.format("identical")
        assert "sessions/sec" in text and "p50" in text

    def test_heterogeneous_load_diverges(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        report = TrafficSimulator(
            engine,
            WorkloadSpec(num_sessions=4, rounds=2, identical_prefix=False),
        ).run()
        assert report.rounds_served == 8
        # After round one the prefixes split, so pools get maintained per user.
        assert report.engine_stats["pools_maintained"] >= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_sessions=0)
        with pytest.raises(ValueError):
            WorkloadSpec(rounds=0)


# ==================================================== review regression tests
class TestReviewRegressions:
    def test_no_wasted_prefetch_when_pool_cache_disabled(
        self, serving_catalog, serving_profile
    ):
        """Without pool sharing every session builds its own pool, once."""
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=0)
        ids = [engine.create_session(seed=4) for _ in range(4)]
        engine.recommend_many(ids)
        stats = engine.stats()
        assert stats.pools_sampled + stats.pools_maintained == 4

    def test_topk_cache_does_not_survive_pool_rebuild(
        self, serving_catalog, serving_profile
    ):
        """A pool evicted and rebuilt must not be served stale top-k lists."""
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=1)
        a = engine.create_session(seed=5)
        engine.recommend(a)                 # empty-prefix pool + top-k cached
        engine.feedback(a, 0)
        engine.recommend(a)                 # new fingerprint evicts the old pool
        b = engine.create_session(seed=5)
        round_b = engine.recommend(b)       # empty-prefix pool rebuilt (new build)
        stats = engine.stats()
        assert stats.topk_cache["hits"] == 0  # stale entry was never served
        # The served list matches the session's *actual* (rebuilt) pool.
        entry_b = engine.sessions.acquire(b)
        recomputed = entry_b.recommender.current_top_k()
        assert [p.items for p in round_b.recommended] == [
            p.items for p in recomputed
        ]

    def test_json_store_distinct_ids_never_collide(self, tmp_path):
        store = JsonSessionStore(str(tmp_path / "j"))
        store.save("a/b", {"n": 1})
        store.save("a_b", {"n": 2})
        assert store.load("a/b") == {"n": 1}
        assert store.load("a_b") == {"n": 2}
        assert store.list_ids() == ["a/b", "a_b"]

    def test_expired_swapped_out_session_id_is_reusable(
        self, serving_catalog, serving_profile, tmp_path
    ):
        clock = FakeClock()
        store = JsonSessionStore(str(tmp_path / "sessions"))
        engine = make_engine(
            serving_catalog,
            serving_profile,
            clock=clock,
            store=store,
            max_active_sessions=1,
            session_ttl_seconds=10.0,
        )
        engine.create_session(session_id="u1")
        engine.create_session(session_id="u2")  # swaps u1 out to the store
        assert "u1" in store.list_ids()
        clock.advance(11.0)
        engine.create_session(session_id="u1")  # expired snapshot reclaimed
        assert engine.stats().sessions_expired >= 1

    def test_batched_serve_survives_capacity_eviction_mid_batch(
        self, serving_catalog, serving_profile, tmp_path
    ):
        """Acquiring a later session must not swap out an earlier one before
        its round is served (the served round would be lost to a pre-serve
        snapshot)."""
        store = JsonSessionStore(str(tmp_path / "sessions"))
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        ids = [engine.create_session(seed=4) for _ in range(3)]
        rounds = engine.recommend_many(ids)
        assert len(rounds) == 3
        # Feedback on every batched session works: each served round was
        # preserved, including for whichever entry got swapped out afterwards.
        for session_id in ids:
            engine.feedback(session_id, 0)

    def test_prefetch_builds_are_not_counted_as_cache_hits(
        self, serving_catalog, serving_profile
    ):
        """The builder session's lookup is the miss that caused the build,
        not a cache win."""
        engine = make_engine(serving_catalog, serving_profile)
        ids = [engine.create_session(seed=4) for _ in range(3)]
        engine.recommend_many(ids)
        stats = engine.stats()
        assert stats.pool_cache["misses"] == 1
        assert stats.pool_cache["hits"] == 2  # only the genuinely shared fetches

    def test_serial_sampler_honours_configured_kind(
        self, serving_catalog, serving_profile
    ):
        """With the batch sampler off but the cache on, engine-level pool
        builds must use the configured elicitation sampler."""
        config = EngineConfig(
            elicitation=fast_elicitation_config(sampler="rejection"),
            seed=1,
            use_batch_sampler=False,
        )
        engine = RecommendationEngine(serving_catalog, serving_profile, config)
        session_id = engine.create_session(seed=2)
        engine.recommend(session_id)
        pool = engine.sessions.acquire(session_id).recommender.sample_pool()
        assert pool.stats["sampler"] == "RS"


# ====================================== snapshot compaction + engine restarts
class TestSnapshotCompaction:
    """Reference (pool-less) snapshots resolved against the pool repository."""

    def _run_shared_sessions(self, engine, num_sessions=4):
        ids = [engine.create_session(seed=7) for _ in range(num_sessions)]
        engine.recommend_many(ids)
        for sid in ids:
            engine.feedback(sid, 0)
        engine.recommend_many(ids)
        return ids

    def _sharded_engine(self, catalog, profile, store, **overrides):
        return make_engine(
            catalog, profile, store=store, pool_shards=4, **overrides
        )

    def test_reference_snapshot_omits_the_pool_payload(
        self, serving_catalog, serving_profile
    ):
        store = MemorySessionStore()
        engine = self._sharded_engine(serving_catalog, serving_profile, store)
        (sid,) = self._run_shared_sessions(engine, num_sessions=1)
        compact = engine.snapshot(sid, embed_pool=False)
        embedded = engine.snapshot(sid)
        assert "samples" not in compact["pool"]
        assert compact["pool"]["key"] == embedded["pool"]["key"]
        # The pool payload went to the store's pool table, exactly once,
        # under a content-addressed key (fingerprint key + digest).
        expected_store_key = (
            f"{compact['pool']['key']}#{compact['pool']['digest']}"
        )
        assert store.list_pool_keys() == [expected_store_key]
        assert len(json.dumps(compact)) < len(json.dumps(embedded))

    def test_sessions_sharing_a_pool_persist_it_once(
        self, serving_catalog, serving_profile
    ):
        store = MemorySessionStore()
        engine = self._sharded_engine(serving_catalog, serving_profile, store)
        ids = self._run_shared_sessions(engine)
        for sid in ids:
            store.save(sid, engine.snapshot(sid, embed_pool=False))
        assert len(store.list_pool_keys()) == 1  # identical prefixes: one pool
        embedded_bytes = sum(
            len(json.dumps(engine.snapshot(sid))) for sid in ids
        )
        assert store.total_bytes() < embedded_bytes

    def test_restart_resolves_pools_by_fingerprint_without_resampling(
        self, serving_catalog, serving_profile
    ):
        """Persist with a ShardedPoolRepository, restart the engine, restore:
        pools come back by fingerprint from the store's pool table."""
        store = MemorySessionStore()
        engine = self._sharded_engine(serving_catalog, serving_profile, store)
        ids = self._run_shared_sessions(engine)
        for sid in ids:
            store.save(sid, engine.snapshot(sid, embed_pool=False))
        expected = [presented_items(engine.recommend(sid)) for sid in ids]

        restarted = self._sharded_engine(serving_catalog, serving_profile, store)
        got = [presented_items(restarted.recommend(sid)) for sid in ids]
        assert got == expected
        stats = restarted.stats()
        assert stats.sessions_restored == len(ids)
        assert stats.pools_sampled == 0  # resolved, never resampled
        assert stats.pools_maintained == 0

    def test_missing_pool_payload_resamples_by_key(
        self, serving_catalog, serving_profile
    ):
        """Resolution falls back to a deterministic refill only when both the
        repository and the store's pool table miss."""
        store = MemorySessionStore()
        engine = self._sharded_engine(serving_catalog, serving_profile, store)
        ids = self._run_shared_sessions(engine)
        for sid in ids:
            store.save(sid, engine.snapshot(sid, embed_pool=False))
        for key in store.list_pool_keys():
            store.delete_pool(key)

        restarted = self._sharded_engine(serving_catalog, serving_profile, store)
        rounds = [restarted.recommend(sid) for sid in ids]
        assert all(round_.recommended for round_ in rounds)
        stats = restarted.stats()
        # One shared fingerprint: resampled once by the first restore's
        # provider; the later restores resolve it from the repository.
        assert stats.pools_sampled == 1
        assert stats.pool_repository["fills"] == 1

    def test_swap_out_uses_reference_snapshots(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = JsonSessionStore(str(tmp_path / "sessions"))
        engine = self._sharded_engine(
            serving_catalog, serving_profile, store, max_active_sessions=1
        )
        a = engine.create_session(seed=5)
        engine.recommend(a)
        engine.create_session(seed=6)  # evicts a
        payload = store.load(a)
        assert "samples" not in payload["pool"]
        assert any(
            key.startswith(payload["pool"]["key"])
            for key in store.list_pool_keys()
        )

    def test_restore_rejects_a_different_build_under_the_same_fingerprint(
        self, serving_catalog, serving_profile
    ):
        """Review regression: a maintained pool's fingerprint can later hold
        a different (fresh-filled) build; restore must detect the digest
        mismatch and come back from the store's exact payload, not continue
        the session's saved RNG state against the wrong pool."""
        store = MemorySessionStore()
        engine = self._sharded_engine(serving_catalog, serving_profile, store)
        sid = engine.create_session(seed=7)
        engine.recommend(sid)
        engine.feedback(sid, 0)
        engine.recommend(sid)  # maintained pool: content depends on history
        store.save(sid, engine.snapshot(sid, embed_pool=False))
        expected = presented_items(engine.recommend(sid))

        restarted = self._sharded_engine(serving_catalog, serving_profile, store)
        payload = store.load(sid)
        key = payload["pool"]["key"]
        # Simulate eviction + key-deterministic refill before the restore:
        # the repository now holds a *different* build under the same key.
        count = int(key.split(":")[0][1:])
        entry = engine.sessions.acquire(sid)
        constraints = entry.recommender.constraints
        fresh = restarted._stamp_pool(
            restarted.pool_repository.fill_one(key, constraints, count)
        )
        restarted.pool_repository.put(key, fresh)
        assert fresh.content_digest() != payload["pool"]["digest"]

        assert presented_items(restarted.recommend(sid)) == expected
        # The mismatched repository build was left in place for its sharers.
        assert restarted.pool_repository.peek(key) is fresh

    def test_legacy_v1_snapshot_restores(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=9)
        engine.recommend(sid)
        snapshot = engine.snapshot(sid)
        snapshot["version"] = 1  # exactly the v1 shape: embedded pool
        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(snapshot)
        assert presented_items(engine.recommend(sid)) == presented_items(
            fresh.recommend(sid)
        )


# ===================================================== dirty-flag swap-outs
class CountingStore(MemorySessionStore):
    """A store that counts snapshot writes (the satellite's regression probe)."""

    def __init__(self) -> None:
        super().__init__()
        self.saves = 0

    def save(self, session_id, payload):
        self.saves += 1
        super().save(session_id, payload)


class TestDirtySwapOut:
    def test_unchanged_sessions_skip_the_store_write(
        self, serving_catalog, serving_profile
    ):
        """LRU swap-out must not re-serialise a session that has not served a
        round or received feedback since it was restored."""
        store = CountingStore()
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        a = engine.create_session(seed=5)
        engine.recommend(a)
        engine.feedback(a, 0)
        engine.create_session(seed=6)  # evicts dirty a -> write 1
        assert store.saves == 1
        engine.snapshot(a)  # restores a (clean) and evicts the other session
        saves_after_restore = store.saves
        engine.create_session(seed=7)  # evicts clean a -> write skipped
        assert store.saves == saves_after_restore
        assert engine.stats().swap_writes_skipped == 1

    def test_served_rounds_dirty_the_entry_again(
        self, serving_catalog, serving_profile
    ):
        store = CountingStore()
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        a = engine.create_session(seed=5)
        engine.recommend(a)
        engine.create_session(seed=6)  # write 1 (a dirty)
        engine.recommend(a)  # restore + serve: dirty again (evicts the other)
        before = store.saves
        engine.create_session(seed=7)  # evicts a: must write
        assert store.saves == before + 1
        assert engine.stats().swap_writes_skipped == 0

    def test_skipped_write_still_restores_correctly(
        self, serving_catalog, serving_profile
    ):
        store = CountingStore()
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        a = engine.create_session(seed=5)
        engine.recommend(a)
        engine.feedback(a, 0)
        engine.create_session(seed=6)  # write (dirty)
        expected = engine.snapshot(a)  # restore a, clean
        engine.create_session(seed=7)  # skip write for clean a
        ra = engine.recommend(a)  # restore again from the original write
        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(expected)
        assert presented_items(ra) == presented_items(fresh.recommend(a))


# ======================================================== pool-table GC sweep
class TestPoolTableGc:
    def _store(self, backend, tmp_path):
        return {
            "memory": lambda: MemorySessionStore(),
            "json": lambda: JsonSessionStore(str(tmp_path / "gc-json")),
            "sqlite": lambda: SqliteSessionStore(str(tmp_path / "gc.sqlite")),
        }[backend]()

    @pytest.mark.parametrize("backend", ["memory", "json", "sqlite"])
    def test_sweeps_unreferenced_entries_only(self, backend, tmp_path):
        store = self._store(backend, tmp_path)
        payload = {"samples": [[0.1, 0.2]], "weights": [1.0]}
        store.save_pool("nA#d1", payload)
        store.save_pool("nA#d2", payload)
        store.save_pool("nB#d3", payload)
        collected = store.gc_pools(live_refs=["nA#d2"])
        assert collected == 2
        assert store.list_pool_keys() == ["nA#d2"]
        # Sweeping again collects nothing: the mark set still covers it.
        assert store.gc_pools(live_refs=["nA#d2"]) == 0

    @pytest.mark.parametrize("backend", ["memory", "json", "sqlite"])
    def test_default_mark_set_is_derived_from_stored_snapshots(
        self, backend, tmp_path
    ):
        store = self._store(backend, tmp_path)
        payload = {"samples": [[0.1]], "weights": [1.0]}
        store.save_pool("nK#live", payload)
        store.save_pool("nK#dead", payload)
        store.save(
            "sess-1",
            {"version": 2, "pool": {"key": "nK", "digest": "live"}},
        )
        # An embedded snapshot references nothing from the pool table.
        store.save(
            "sess-2",
            {"version": 2, "pool": {"key": "nK", "samples": [[0.1]], "weights": [1.0]}},
        )
        assert store.gc_pools() == 1
        assert store.list_pool_keys() == ["nK#live"]

    def test_pool_ref_of_handles_malformed_payloads(self):
        ref = MemorySessionStore.pool_ref_of
        assert ref(None) is None
        assert ref({}) is None
        assert ref({"pool": None}) is None
        assert ref({"pool": {"key": "nK"}}) is None  # digest-less
        assert ref({"pool": {"key": "nK", "digest": "d"}}) == "nK#d"

    def test_engine_snapshots_survive_a_sweep(
        self, serving_catalog, serving_profile
    ):
        """End to end: swap-outs write pool payloads; gc keeps exactly the
        referenced builds and a restore still resolves without resampling."""
        store = MemorySessionStore()
        engine = make_engine(serving_catalog, serving_profile, store=store)
        sid = engine.create_session()
        engine.recommend(sid)
        engine.feedback(sid, 0)
        engine.recommend(sid)
        first = engine.snapshot(sid, embed_pool=False)
        engine.feedback(sid, 1)
        engine.recommend(sid)
        second = engine.snapshot(sid, embed_pool=False)
        store.save(sid, second)
        assert len(store.list_pool_keys()) == 2  # two distinct builds persisted
        assert store.gc_pools() == 1  # only the snapshot's build survives
        live_ref = store.pool_ref_of(second)
        assert store.list_pool_keys() == [live_ref]
        del first
        restored = make_engine(serving_catalog, serving_profile, store=store)
        # The id resolves through the shared store, so replace it explicitly.
        restored.restore(store.load(sid), replace_existing=True)
        assert restored.stats().pools_sampled == 0


# ================================================== noisy elicitation (ψ < 1)
class TestNoisyElicitationAdaptation:
    def test_noisy_session_converges_while_served_adapted_pools(
        self, serving_catalog, serving_profile
    ):
        """fig8-style: a ψ<1 simulated user's regret shrinks end to end while
        the engine serves reweighted (adapted) pools on its cache misses."""
        from repro.service import AdaptationConfig
        from repro.simulation.user import SimulatedUser
        from repro.core.noise import NoiseModel

        engine = make_engine(
            serving_catalog,
            serving_profile,
            pool_adaptation=AdaptationConfig(psi=0.85, min_ess_fraction=0.15),
        )
        user = SimulatedUser.random(
            engine.evaluator, rng=1, noise=NoiseModel(0.85)
        )
        sid = engine.create_session(seed=9)
        recommended_history = []
        seen = {}
        for _round in range(8):
            round_ = engine.recommend(sid)
            recommended_history.append(list(round_.recommended))
            for package in round_.presented:
                seen.setdefault(package.items, package)
            engine.feedback(sid, user.click(round_.presented))
        ideal = user.true_top_k(list(seen.values()), k=2)
        first_regret = user.regret(recommended_history[0], ideal)
        final_regret = user.regret(recommended_history[-1], ideal)
        assert final_regret < first_regret  # the noisy session still learned
        assert final_regret < 0.05
        stats = engine.stats()
        assert stats.pools_adapted >= 1  # the misses were served by reuse
        assert stats.adaptation["reuse_rate"] > 0.0


# ================================================= weighted pools, end to end
class TestWeightedPoolsEndToEnd:
    def _weighted_pool(self, num_features, rng_seed=0):
        rng = np.random.default_rng(rng_seed)
        samples = rng.normal(size=(12, num_features))
        weights = rng.random(12) * np.pi  # irrational-ish, full double width
        return SamplePool(samples, weights)

    def test_snapshot_restore_preserves_weight_bytes(
        self, serving_catalog, serving_profile
    ):
        """Satellite acceptance: weight arrays survive the JSON snapshot
        round-trip byte-identically (repr-roundtrip of doubles)."""
        engine = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=4)
        engine.recommend(sid)
        pool = self._weighted_pool(serving_catalog.num_features)
        entry = engine.sessions.acquire(sid)
        entry.recommender.set_pool(pool)
        payload = json.loads(json.dumps(engine.snapshot(sid)))
        fresh = make_engine(serving_catalog, serving_profile)
        fresh.restore(payload)
        restored = fresh.sessions.acquire(sid).recommender.pending_pool
        assert restored.samples.tobytes() == pool.samples.tobytes()
        assert restored.weights.tobytes() == pool.weights.tobytes()

    def test_engine_maintenance_keeps_surviving_weights(
        self, serving_catalog, serving_profile
    ):
        """The §3.4 split preserves each surviving sample's importance weight."""
        engine = make_engine(serving_catalog, serving_profile)
        pool = self._weighted_pool(serving_catalog.num_features, rng_seed=2)
        direction = np.zeros(serving_catalog.num_features)
        direction[0] = 1.0
        constraints = ConstraintSet(direction[None, :])
        surviving, deficit = engine._maintenance_split(
            constraints, pool.size, pool
        )
        mask = constraints.valid_mask(pool.samples)
        assert surviving.size == int(mask.sum())
        assert deficit == pool.size - surviving.size
        np.testing.assert_array_equal(surviving.weights, pool.weights[mask])

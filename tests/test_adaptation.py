"""Tests for the approximate pool-reuse subsystem (repro.service.adaptation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.service import (
    AdaptationConfig,
    ConstraintSimilarityIndex,
    EngineConfig,
    MemorySessionStore,
    PoolAdapter,
    RecommendationEngine,
    PoolRepository,
)


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
        num_random=0,  # deterministic presentations: clicks are reproducible
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


def make_engine(catalog, profile, store=None, **config_overrides):
    config_overrides.setdefault(
        "pool_adaptation", AdaptationConfig(psi=0.9, min_ess_fraction=0.2)
    )
    config = EngineConfig(
        elicitation=config_overrides.pop(
            "elicitation", fast_elicitation_config()
        ),
        seed=1,
        **config_overrides,
    )
    return RecommendationEngine(catalog, profile, config, store=store)


def constraints_of(*rows) -> ConstraintSet:
    return ConstraintSet(np.array(rows, dtype=float))


# =========================================================== AdaptationConfig
class TestAdaptationConfig:
    def test_defaults_are_valid(self):
        config = AdaptationConfig()
        assert 0.0 <= config.psi <= 1.0
        assert 0.0 < config.min_ess_fraction <= 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"psi": -0.1},
            {"psi": 1.1},
            {"min_ess_fraction": 0.0},
            {"min_ess_fraction": 1.5},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            AdaptationConfig(**kwargs)

    def test_engine_config_requires_a_pool_cache(
        self, serving_catalog, serving_profile
    ):
        with pytest.raises(ValueError, match="pool_adaptation"):
            EngineConfig(pool_cache_size=0, pool_adaptation=AdaptationConfig())


# ==================================================== ConstraintSimilarityIndex
class TestConstraintSimilarityIndex:
    def test_register_contains_forget(self):
        index = ConstraintSimilarityIndex()
        constraints = constraints_of([1.0, 0.0])
        index.register("k1", constraints, 40)
        assert "k1" in index and len(index) == 1
        assert index.forget("k1") and "k1" not in index
        assert not index.forget("k1")

    def test_rows_normalise_order_and_negative_zero(self):
        index = ConstraintSimilarityIndex()
        a = constraints_of([1.0, -0.0], [0.0, 1.0])
        b = constraints_of([0.0, 1.0], [1.0, 0.0])
        assert index.rows_of(a) == index.rows_of(b)

    def test_prefix_donor_ranks_before_sibling_donor(self):
        index = ConstraintSimilarityIndex()
        shared = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        target = constraints_of(*shared, [0.0, 0.0, 1.0])
        index.register("prefix", constraints_of(*shared), 40)
        index.register(
            "sibling", constraints_of(*shared, [0.0, 0.0, -1.0]), 40
        )
        candidates = index.candidates(
            target, 40, ["prefix", "sibling"], max_candidates=4
        )
        assert [c.key for c in candidates] == ["prefix", "sibling"]
        assert candidates[0].is_prefix and candidates[0].extra == 0
        assert candidates[1].extra == 1

    def test_count_and_dimension_mismatches_are_excluded(self):
        index = ConstraintSimilarityIndex()
        target = constraints_of([1.0, 0.0])
        index.register("wrong-count", target, 80)
        index.register("wrong-dim", constraints_of([1.0, 0.0, 0.0]), 40)
        assert (
            index.candidates(
                target, 40, ["wrong-count", "wrong-dim"], max_candidates=4
            )
            == []
        )

    def test_mostly_foreign_donors_are_filtered(self):
        """A donor restricted mainly by rows the target never asserted is a
        biased proposal the ESS gate cannot see — it must not be offered."""
        index = ConstraintSimilarityIndex()
        target = constraints_of([1.0, 0.0, 0.0])
        index.register(
            "foreign",
            constraints_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]),
            40,
        )
        assert index.candidates(target, 40, ["foreign"], max_candidates=4) == []

    def test_empty_target_gets_no_donors(self):
        index = ConstraintSimilarityIndex()
        index.register("donor", constraints_of([1.0, 0.0]), 40)
        empty = ConstraintSet.empty(2)
        assert index.candidates(empty, 40, ["donor"], max_candidates=4) == []

    def test_unregistered_live_keys_are_ignored(self):
        index = ConstraintSimilarityIndex()
        target = constraints_of([1.0, 0.0])
        assert index.candidates(target, 40, ["unknown"], max_candidates=4) == []

    def test_max_candidates_truncates(self):
        index = ConstraintSimilarityIndex()
        target = constraints_of([1.0, 0.0], [0.0, 1.0])
        for i in range(5):
            index.register(f"d{i}", constraints_of([1.0, 0.0]), 40)
        found = index.candidates(
            target, 40, [f"d{i}" for i in range(5)], max_candidates=2
        )
        assert len(found) == 2


# ================================================================ PoolAdapter
def build_repository_with(key, pool):
    def fail_spec_factory(key, constraints, count):
        # adaptation must never trigger a fill
        raise AssertionError("spec factory must not be called")

    repository = PoolRepository(
        fail_spec_factory, GaussianMixture.default_prior(2, rng=0), capacity=8
    )
    repository.put(key, pool)
    return repository


class TestPoolAdapter:
    def _adapter(self, repository, index, **config_kwargs):
        config_kwargs.setdefault("psi", 0.9)
        config_kwargs.setdefault("min_ess_fraction", 0.25)
        return PoolAdapter(repository, index, AdaptationConfig(**config_kwargs))

    def _donor_setup(self, valid_fraction=1.0, count=40):
        """A donor pool for the half-plane x >= 0, target adds y >= 0."""
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(count, 2))
        samples[:, 0] = np.abs(samples[:, 0])  # donor-valid: x >= 0
        flip = rng.random(count) >= valid_fraction
        samples[flip, 1] = -np.abs(samples[flip, 1])
        samples[~flip, 1] = np.abs(samples[~flip, 1])
        donor_constraints = constraints_of([1.0, 0.0])
        target_constraints = constraints_of([1.0, 0.0], [0.0, 1.0])
        index = ConstraintSimilarityIndex()
        index.register("donor", donor_constraints, count)
        repository = build_repository_with(
            "donor", SamplePool.unweighted(samples)
        )
        return repository, index, target_constraints, count

    def test_adapts_from_a_prefix_donor_and_marks_the_pool(self):
        repository, index, target, count = self._donor_setup()
        adapter = self._adapter(repository, index)
        adapted = adapter.adapt("target-key", target, count)
        assert adapted is not None
        assert adapted.stats["sampler"] == "adapted"
        assert adapted.stats["adapted_from"] == "donor"
        assert adapted.stats["adaptation_psi"] == 0.9
        assert adapted.stats["adaptation_extra"] == 0
        assert adapter.stats.adapted == 1
        assert adapter.stats.prefix_donors == 1
        assert adapter.stats.reuse_rate == 1.0

    def test_low_ess_is_gated_out(self):
        # Every donor sample violates the new target constraint: at psi=0.9
        # all weights collapse to 0.1^1 uniformly... so make the violations
        # heterogeneous by psi=1.0: all-violating -> ESS 0 < floor.
        repository, index, target, count = self._donor_setup(valid_fraction=0.0)
        adapter = self._adapter(repository, index, psi=1.0)
        assert adapter.adapt("target-key", target, count) is None
        assert adapter.stats.low_ess == 1
        assert adapter.stats.adapted == 0

    def test_no_registered_donor_returns_none(self):
        repository, index, target, count = self._donor_setup()
        empty_index = ConstraintSimilarityIndex()
        adapter = self._adapter(repository, empty_index)
        assert adapter.adapt("target-key", target, count) is None
        assert adapter.stats.no_donor == 1

    def test_the_target_key_itself_is_never_a_donor(self):
        repository, index, target, count = self._donor_setup()
        adapter = self._adapter(repository, index)
        assert adapter.adapt("donor", target, count) is None
        assert adapter.stats.no_donor == 1

    def test_donor_pool_in_repository_is_untouched(self):
        repository, index, target, count = self._donor_setup(valid_fraction=0.5)
        before = repository.peek("donor").weights.copy()
        self._adapter(repository, index).adapt("target-key", target, count)
        np.testing.assert_array_equal(repository.peek("donor").weights, before)

    def test_psi_one_identical_set_degenerates_to_reuse(self):
        """Acceptance criterion: ψ=1 + identical constraints = exact reuse."""
        rng = np.random.default_rng(1)
        samples = np.abs(rng.normal(size=(40, 2)))
        donor = SamplePool.unweighted(samples)
        constraints = constraints_of([1.0, 0.0], [0.0, 1.0])
        index = ConstraintSimilarityIndex()
        index.register("donor", constraints, 40)
        repository = build_repository_with("donor", donor)
        adapter = self._adapter(repository, index, psi=1.0)
        adapted = adapter.adapt("other-key", constraints, 40)
        assert adapted is not None
        assert adapted.samples.tobytes() == donor.samples.tobytes()
        assert adapted.weights.tobytes() == donor.weights.tobytes()
        assert adapted.stats["adaptation_ess"] == pytest.approx(40.0)


# ========================================================== engine integration
class TestEngineAdaptation:
    def _drive_divergent_pair(self, engine):
        """Two sessions sharing round 1; the second clicks differently."""
        first = engine.create_session()
        engine.recommend(first)
        engine.feedback(first, 0)
        engine.recommend(first)

        second = engine.create_session()
        engine.recommend(second)
        engine.feedback(second, 1)  # one click apart from the first session
        engine.recommend(second)
        return first, second

    def test_divergent_sessions_adapt_instead_of_sampling(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        baseline = make_engine(
            serving_catalog, serving_profile, pool_adaptation=None
        )
        self._drive_divergent_pair(engine)
        self._drive_divergent_pair(baseline)
        stats = engine.stats()
        baseline_stats = baseline.stats()
        assert stats.pools_adapted >= 2
        assert stats.adaptation["reuse_rate"] > 0.0
        # The adapted engine samples strictly fewer pools than the baseline.
        assert stats.pools_sampled < (
            baseline_stats.pools_sampled + baseline_stats.pools_maintained
        )

    def test_adapted_pools_are_marked_and_distinct_from_fresh_builds(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        _first, second = self._drive_divergent_pair(engine)
        entry = engine.sessions.acquire(second)
        pool = entry.recommender.pending_pool
        assert pool is not None
        assert pool.stats["sampler"] == "adapted"
        assert "adapted_from" in pool.stats
        # The key-deterministic fresh build of the same key has different
        # content, so the content digests can never be confused.
        fresh = engine.pool_repository.fill_one(
            entry.pool_key,
            entry.recommender.constraints,
            entry.recommender.config.num_samples,
        )
        assert pool.content_digest() != fresh.content_digest()

    def test_recommend_many_prefetch_adapts(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        ids = [engine.create_session() for _ in range(4)]
        engine.recommend_many(ids)
        for index, sid in enumerate(ids):
            engine.feedback(sid, index % 2)
        engine.recommend_many(ids)
        stats = engine.stats()
        assert stats.pools_adapted >= 1
        assert stats.adaptation["attempts"] >= 1

    def test_adapted_reference_snapshot_round_trips(
        self, serving_catalog, serving_profile
    ):
        store = MemorySessionStore()
        engine = make_engine(serving_catalog, serving_profile, store=store)
        _first, second = self._drive_divergent_pair(engine)
        payload = engine.snapshot(second, embed_pool=False)
        assert "samples" not in payload["pool"]
        restored_engine = make_engine(
            serving_catalog, serving_profile, store=store
        )
        restored_engine.restore(payload)
        entry = restored_engine.sessions.acquire(second)
        pool = entry.recommender.pending_pool
        original = engine.sessions.acquire(second).recommender.pending_pool
        assert pool is not None
        assert pool.samples.tobytes() == original.samples.tobytes()
        assert pool.weights.tobytes() == original.weights.tobytes()

    def test_noise_free_default_engine_never_adapts(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(
            serving_catalog, serving_profile, pool_adaptation=None
        )
        self._drive_divergent_pair(engine)
        stats = engine.stats()
        assert stats.pools_adapted == 0
        assert stats.adaptation == {}
        assert engine.pool_adapter is None


# ===================================================== review-driven hardening
class TestIndexBounding:
    def test_capacity_evicts_least_recently_touched(self):
        index = ConstraintSimilarityIndex(capacity=2)
        a = constraints_of([1.0, 0.0])
        index.register("k1", a, 40)
        index.register("k2", a, 40)
        index.register("k1", a, 40)  # refresh k1's recency
        index.register("k3", a, 40)  # evicts k2, the oldest
        assert "k1" in index and "k3" in index
        assert "k2" not in index
        assert len(index) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSimilarityIndex(capacity=0)


class TestChainDepthCap:
    def _setup(self, donor_depth):
        rng = np.random.default_rng(0)
        samples = np.abs(rng.normal(size=(40, 2)))
        donor = SamplePool.unweighted(samples)
        if donor_depth:
            donor.stats["sampler"] = "adapted"
            donor.stats["adaptation_depth"] = donor_depth
        donor_constraints = constraints_of([1.0, 0.0])
        target = constraints_of([1.0, 0.0], [0.0, 1.0])
        index = ConstraintSimilarityIndex()
        index.register("donor", donor_constraints, 40)
        repository = build_repository_with("donor", donor)
        adapter = PoolAdapter(
            repository,
            index,
            AdaptationConfig(psi=0.9, min_ess_fraction=0.2),
        )
        return adapter, target

    def test_fresh_donor_yields_depth_one(self):
        adapter, target = self._setup(donor_depth=0)
        adapted = adapter.adapt("target", target, 40)
        assert adapted is not None
        assert adapted.stats["adaptation_depth"] == 1

    def test_adapted_donor_yields_depth_two(self):
        adapter, target = self._setup(donor_depth=1)
        adapted = adapter.adapt("target", target, 40)
        assert adapted is not None
        assert adapted.stats["adaptation_depth"] == 2

    def test_donor_at_the_cap_is_refused(self):
        adapter, target = self._setup(donor_depth=2)
        assert adapter.adapt("target", target, 40) is None
        assert adapter.stats.chain_capped == 1
        assert adapter.stats.no_donor == 0

"""Tests for the end-to-end PackageRecommender elicitation loop."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.elicitation import (
    ElicitationConfig,
    PackageRecommender,
    RecommendationRound,
)
from repro.core.packages import Package
from repro.core.profiles import AggregateProfile
from repro.core.ranking import RankingSemantics
from repro.sampling.gaussian_mixture import GaussianMixture


@pytest.fixture
def recommender(small_random_catalog):
    profile = AggregateProfile(["sum", "avg", "max", "min"])
    config = ElicitationConfig(
        k=3, num_random=2, max_package_size=3, num_samples=40, sampler="mcmc", seed=0
    )
    return PackageRecommender(small_random_catalog, profile, config)


class TestElicitationConfig:
    def test_defaults_are_valid(self):
        config = ElicitationConfig()
        assert config.k == 5
        assert config.semantics is RankingSemantics.EXP

    def test_semantics_string_coerced(self):
        assert ElicitationConfig(semantics="tkp").semantics is RankingSemantics.TKP

    @pytest.mark.parametrize("kwargs", [
        {"k": 0},
        {"num_random": -1},
        {"max_package_size": 0},
        {"num_samples": 0},
        {"sampler": "gibbs"},
        {"maintenance": "rebuild"},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ElicitationConfig(**kwargs)


class TestRecommendationRound:
    def test_presented_combines_both_lists(self):
        round_ = RecommendationRound(
            recommended=[Package.of([1])], random_packages=[Package.of([2])]
        )
        assert len(round_) == 2
        assert round_.presented == [Package.of([1]), Package.of([2])]

    def test_random_packages_default_to_a_fresh_empty_list(self):
        one, two = RecommendationRound([Package.of([1])]), RecommendationRound([])
        assert one.random_packages == [] and one.random_packages is not two.random_packages
        assert one == RecommendationRound(recommended=[Package.of([1])], random_packages=[])

    def test_slotted_without_an_instance_dict(self):
        round_ = RecommendationRound([Package.of([1])], [Package.of([2])])
        assert not hasattr(round_, "__dict__")
        with pytest.raises(AttributeError):
            round_.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_deepcopy_round_trip(self, protocol):
        round_ = RecommendationRound([Package.of([1, 4])], [Package.of([2]), Package.of([3])])
        for loaded in (
            pickle.loads(pickle.dumps(round_, protocol=protocol)),
            copy.deepcopy(round_),
        ):
            assert loaded == round_ and loaded is not round_
            assert loaded.presented == round_.presented
        assert round_ != RecommendationRound([Package.of([1, 4])])
        with pytest.raises(TypeError):
            hash(round_)  # a mutable dataclass stays unhashable


class TestPackageRecommender:
    def test_recommend_returns_requested_counts(self, recommender):
        round_ = recommender.recommend()
        assert len(round_.recommended) == 3
        assert len(round_.random_packages) == 2
        assert recommender.rounds_presented == 1

    def test_recommended_packages_are_distinct(self, recommender):
        round_ = recommender.recommend()
        items = [p.items for p in round_.presented]
        assert len(items) == len(set(items))

    def test_feedback_adds_preferences_and_updates_pool(self, recommender):
        round_ = recommender.recommend()
        clicked = round_.presented[1]
        added = recommender.feedback(clicked)
        assert added == len(round_.presented) - 1
        assert recommender.num_feedback_preferences == added
        assert recommender.clicks_received == 1
        # All pool samples satisfy the (reduced) constraints after maintenance.
        pool = recommender.sample_pool()
        assert np.all(recommender.constraints.valid_mask(pool.samples))
        assert pool.size == recommender.config.num_samples

    def test_feedback_requires_presented_context(self, recommender):
        with pytest.raises(ValueError):
            recommender.feedback(Package.of([0]))

    def test_feedback_rejects_unpresented_click(self, recommender):
        recommender.recommend()
        with pytest.raises(ValueError):
            recommender.feedback(Package.of([0, 1, 2]))

    def test_explicit_presented_list(self, recommender):
        presented = [Package.of([0]), Package.of([1]), Package.of([2])]
        added = recommender.feedback(presented[0], presented)
        assert added == 2

    def test_estimated_weights_shape(self, recommender):
        assert recommender.estimated_weights().shape == (4,)

    def test_current_top_k_override(self, recommender):
        top = recommender.current_top_k(k=2, semantics="tkp")
        assert len(top) == 2

    def test_custom_prior_dimension_checked(self, small_random_catalog):
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        wrong_prior = GaussianMixture.default_prior(3, rng=0)
        with pytest.raises(ValueError):
            PackageRecommender(small_random_catalog, profile, prior=wrong_prior)

    def test_resample_maintenance_regenerates_pool(self, small_random_catalog):
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        config = ElicitationConfig(
            k=2, num_random=2, max_package_size=2, num_samples=30,
            sampler="rejection", maintenance="resample", seed=1,
        )
        recommender = PackageRecommender(small_random_catalog, profile, config)
        round_ = recommender.recommend()
        recommender.feedback(round_.presented[0])
        pool = recommender.sample_pool()
        assert pool.size == 30
        assert np.all(recommender.constraints.valid_mask(pool.samples))

    @pytest.mark.parametrize("sampler", ["rejection", "importance", "mcmc"])
    def test_all_samplers_work_end_to_end(self, small_random_catalog, sampler):
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        config = ElicitationConfig(
            k=2, num_random=1, max_package_size=2, num_samples=25,
            sampler=sampler, seed=2,
        )
        recommender = PackageRecommender(small_random_catalog, profile, config)
        round_ = recommender.recommend()
        assert len(round_.recommended) == 2
        recommender.feedback(round_.presented[0])
        assert len(recommender.current_top_k()) == 2

    def test_feedback_improves_alignment_with_clicks(self, small_random_catalog):
        """After clicking cost-averse packages, the posterior mean should shift."""
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        config = ElicitationConfig(
            k=3, num_random=3, max_package_size=3, num_samples=60,
            sampler="mcmc", seed=3,
        )
        recommender = PackageRecommender(small_random_catalog, profile, config)
        hidden = np.array([0.9, 0.7, 0.5, 0.3])
        before = recommender.estimated_weights()
        for _ in range(4):
            round_ = recommender.recommend()
            utilities = [
                recommender.evaluator.utility(p, hidden) for p in round_.presented
            ]
            clicked = round_.presented[int(np.argmax(utilities))]
            recommender.feedback(clicked)
        after = recommender.estimated_weights()
        # Cosine similarity with the hidden weights should not get worse.
        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))
        assert cosine(after, hidden) >= cosine(before, hidden) - 0.05

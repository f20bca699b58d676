"""End-to-end integration tests across subsystems."""

import numpy as np

from repro import (
    AggregateProfile,
    ElicitationConfig,
    ItemCatalog,
    PackageRecommender,
    SimulatedUser,
    TopKPackageSearcher,
    brute_force_top_k_packages,
    generate_nba_dataset,
    load_benchmark_dataset,
)
from repro.core.packages import PackageEvaluator
from repro.core.ranking import rank_from_samples
from repro.sampling.base import ConstraintSet
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.simulation.session import ElicitationSession


class TestPublicApiSurface:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"


class TestFullPipelineOnSyntheticData:
    def test_sample_search_rank_pipeline(self):
        """Constrained sampling -> per-sample Top-k-Pkg -> EXP aggregation."""
        data = load_benchmark_dataset("UNI", num_tuples=300, num_features=4, rng=0)
        catalog = ItemCatalog(data)
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        evaluator = PackageEvaluator(catalog, profile, max_package_size=4)

        hidden = np.array([0.6, 0.4, -0.3, 0.2])
        packages = evaluator.random_packages(100, rng=1)
        vectors = evaluator.vectors(packages)
        # Simulate consistent feedback from the hidden utility.
        directions = []
        rng = np.random.default_rng(2)
        for _ in range(15):
            i, j = rng.choice(len(packages), 2, replace=False)
            diff = vectors[i] - vectors[j]
            directions.append(diff if diff @ hidden >= 0 else -diff)
        constraints = ConstraintSet(np.stack(directions))

        prior = GaussianMixture.default_prior(4, rng=0)
        pool = MetropolisHastingsSampler(prior, rng=3).sample(60, constraints)
        assert np.all(constraints.valid_mask(pool.samples))

        searcher = TopKPackageSearcher(evaluator)
        results = [searcher.search(pool.samples[i], 3) for i in range(20)]
        final = rank_from_samples(results, 3, "exp", sample_weights=pool.weights[:20])
        assert len(final) == 3

        # The aggregated recommendation should score well under the hidden
        # utility relative to random packages.
        recommended_value = np.mean([evaluator.utility(p, hidden) for p in final])
        random_value = np.mean([evaluator.utility(p, hidden) for p in packages])
        assert recommended_value > random_value

    def test_recommender_on_nba_data_end_to_end(self):
        data = generate_nba_dataset(150, 5, rng=0)
        catalog = ItemCatalog(data)
        profile = AggregateProfile(["sum", "avg", "max", "avg", "min"])
        config = ElicitationConfig(
            k=3, num_random=3, max_package_size=3, num_samples=40,
            sampler="mcmc", seed=4,
        )
        recommender = PackageRecommender(catalog, profile, config)
        user = SimulatedUser.random(recommender.evaluator, rng=5)
        session = ElicitationSession(recommender, user, max_rounds=6)
        result = session.run(compute_regret=True)
        assert result.rounds_run <= 6
        assert recommender.num_feedback_preferences > 0
        assert result.final_regret is not None

    def test_search_consistency_with_bruteforce_after_elicitation(self):
        """The recommender's per-sample searches stay exact mid-elicitation."""
        rng = np.random.default_rng(6)
        catalog = ItemCatalog(rng.random((12, 3)))
        profile = AggregateProfile(["sum", "avg", "max"])
        config = ElicitationConfig(
            k=2, num_random=2, max_package_size=3, num_samples=25,
            sampler="rejection", seed=6,
        )
        recommender = PackageRecommender(catalog, profile, config)
        round_ = recommender.recommend()
        recommender.feedback(round_.presented[0])
        pool = recommender.sample_pool()
        searched = recommender.batch_searcher.search_many(pool.samples[:5], 2)
        for weights, result in zip(pool.samples[:5], searched):
            brute = brute_force_top_k_packages(recommender.evaluator, weights, 2)
            assert np.allclose(result.utilities, [u for _, u in brute], atol=1e-9)

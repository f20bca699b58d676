"""Tests for the three constrained samplers: rejection, importance, MCMC."""

import numpy as np
import pytest

from repro.sampling.base import ConstraintSet
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.importance import (
    ImportanceSampler,
    ImportanceSamplingIntractableError,
)
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.sampling.rejection import RejectionSampler, RejectionSamplingError


@pytest.fixture
def half_plane_constraints() -> ConstraintSet:
    """Two 2-D constraints: w1 + w2 >= 0 and w1 >= 0."""
    return ConstraintSet(np.array([[1.0, 1.0], [1.0, 0.0]]))


class TestRejectionSampler:
    def test_samples_satisfy_constraints(self, two_dim_prior, half_plane_constraints):
        sampler = RejectionSampler(two_dim_prior, rng=0)
        pool = sampler.sample(200, half_plane_constraints)
        assert pool.size == 200
        assert np.all(half_plane_constraints.valid_mask(pool.samples))
        assert np.allclose(pool.weights, 1.0)

    def test_stats_track_attempts(self, two_dim_prior, half_plane_constraints):
        pool = RejectionSampler(two_dim_prior, rng=0).sample(100, half_plane_constraints)
        assert pool.stats["attempts"] >= 100
        assert 0.0 < pool.stats["acceptance_rate"] <= 1.0

    def test_no_constraints_accepts_all(self, two_dim_prior):
        pool = RejectionSampler(two_dim_prior, rng=0).sample(50, ConstraintSet.empty(2))
        assert pool.stats["acceptance_rate"] == pytest.approx(1.0)

    def test_exhausts_attempts_on_infeasible_region(self, two_dim_prior):
        sampler = RejectionSampler(two_dim_prior, rng=0, max_attempts=2_000)
        with pytest.raises(RejectionSamplingError):
            # Requires w1 == 0 exactly; measure-zero region.
            sampler.sample(10, ConstraintSet(np.array([[1.0, 0.0], [-1.0, 1e-6]])))

    def test_dimension_mismatch_rejected(self, two_dim_prior):
        with pytest.raises(ValueError):
            RejectionSampler(two_dim_prior).sample(5, ConstraintSet.empty(3))

    def test_invalid_parameters(self, two_dim_prior):
        with pytest.raises(ValueError):
            RejectionSampler(two_dim_prior, batch_size=0)
        with pytest.raises(ValueError):
            RejectionSampler(two_dim_prior, max_attempts=0)
        with pytest.raises(ValueError):
            RejectionSampler(two_dim_prior).sample(-1, ConstraintSet.empty(2))

    def test_noise_model_accepts_some_violators(self, two_dim_prior):
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        noisy = RejectionSampler(two_dim_prior, rng=0, noise_probability=0.5)
        pool = noisy.sample(300, constraints)
        # With psi = 0.5, a sample violating one constraint is kept half the time.
        violating = (~constraints.valid_mask(pool.samples)).sum()
        assert violating > 0

    def test_sample_one_valid(self, two_dim_prior, half_plane_constraints):
        sample = RejectionSampler(two_dim_prior, rng=0).sample_one_valid(half_plane_constraints)
        assert half_plane_constraints.is_valid(sample)


class TestImportanceSampler:
    def test_samples_satisfy_constraints(self, two_dim_prior, half_plane_constraints):
        sampler = ImportanceSampler(two_dim_prior, rng=0)
        pool = sampler.sample(200, half_plane_constraints)
        assert pool.size == 200
        assert np.all(half_plane_constraints.valid_mask(pool.samples))

    def test_importance_weights_are_prior_over_proposal(self, two_dim_prior, half_plane_constraints):
        sampler = ImportanceSampler(two_dim_prior, rng=0)
        proposal = sampler.build_proposal(half_plane_constraints)
        pool = sampler.sample(50, half_plane_constraints)
        expected = two_dim_prior.pdf(pool.samples) / proposal.pdf(pool.samples)
        assert np.allclose(pool.weights, expected, rtol=1e-6)

    def test_higher_acceptance_than_rejection(self, two_dim_prior):
        """Feedback-aware proposal wastes fewer samples (Theorem 1's practical face)."""
        # A tight corner of weight space: w1 >= 0.3 and w2 >= 0.3.
        tight = ConstraintSet(np.array([[1.0, 0.0], [0.0, 1.0],
                                        [1.0, -0.15], [-0.15, 1.0]]))
        rejection_pool = RejectionSampler(two_dim_prior, rng=0).sample(150, tight)
        importance_pool = ImportanceSampler(two_dim_prior, rng=0).sample(150, tight)
        assert (
            importance_pool.stats["acceptance_rate"]
            > rejection_pool.stats["acceptance_rate"]
        )

    def test_approximate_center_lies_in_valid_region(self, two_dim_prior, half_plane_constraints):
        sampler = ImportanceSampler(two_dim_prior, rng=0, cells_per_dim=8)
        center = sampler.approximate_center(half_plane_constraints)
        # The centre approximation should satisfy the constraints comfortably.
        assert half_plane_constraints.is_valid(center)

    def test_dimensionality_cutoff_raises(self):
        prior = GaussianMixture.default_prior(6, rng=0)
        sampler = ImportanceSampler(prior, rng=0, max_features_for_grid=5)
        with pytest.raises(ImportanceSamplingIntractableError):
            sampler.sample(10, ConstraintSet.empty(6))

    def test_invalid_parameters(self, two_dim_prior):
        with pytest.raises(ValueError):
            ImportanceSampler(two_dim_prior, cells_per_dim=0)
        with pytest.raises(ValueError):
            ImportanceSampler(two_dim_prior, proposal_std=0.0)
        with pytest.raises(ValueError):
            ImportanceSampler(two_dim_prior, max_features_for_grid=0)


class TestMetropolisHastingsSampler:
    def test_samples_satisfy_constraints(self, two_dim_prior, half_plane_constraints):
        sampler = MetropolisHastingsSampler(two_dim_prior, rng=0)
        pool = sampler.sample(300, half_plane_constraints)
        assert pool.size == 300
        assert np.all(half_plane_constraints.valid_mask(pool.samples))
        assert np.allclose(pool.weights, 1.0)

    def test_zero_samples(self, two_dim_prior, half_plane_constraints):
        pool = MetropolisHastingsSampler(two_dim_prior, rng=0).sample(0, half_plane_constraints)
        assert pool.size == 0

    def test_chain_explores_the_region(self, two_dim_prior, half_plane_constraints):
        pool = MetropolisHastingsSampler(two_dim_prior, rng=0, step_length=0.4).sample(
            500, half_plane_constraints
        )
        # The chain should not collapse onto a single point.
        assert pool.samples.std(axis=0).min() > 0.05

    def test_distribution_roughly_matches_rejection(self, two_dim_prior):
        """Both samplers target the same truncated prior, so moments should agree."""
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        mcmc = MetropolisHastingsSampler(two_dim_prior, rng=1, step_length=0.5).sample(
            4000, constraints
        )
        rejection = RejectionSampler(two_dim_prior, rng=2).sample(4000, constraints)
        assert np.allclose(
            mcmc.samples.mean(axis=0), rejection.samples.mean(axis=0), atol=0.08
        )

    def test_respects_supplied_initial_state(self, two_dim_prior, half_plane_constraints):
        start = np.array([0.5, 0.5])
        sampler = MetropolisHastingsSampler(
            two_dim_prior, rng=0, initial_state=start, burn_in=0, thinning=1
        )
        pool = sampler.sample(5, half_plane_constraints)
        assert pool.size == 5

    def test_invalid_initial_state_rejected(self, two_dim_prior, half_plane_constraints):
        sampler = MetropolisHastingsSampler(
            two_dim_prior, initial_state=np.array([-0.9, -0.9])
        )
        with pytest.raises(ValueError):
            sampler.sample(5, half_plane_constraints)

    def test_invalid_parameters(self, two_dim_prior):
        with pytest.raises(ValueError):
            MetropolisHastingsSampler(two_dim_prior, step_length=0.0)
        with pytest.raises(ValueError):
            MetropolisHastingsSampler(two_dim_prior, thinning=0)
        with pytest.raises(ValueError):
            MetropolisHastingsSampler(two_dim_prior, burn_in=-1)
        with pytest.raises(ValueError):
            MetropolisHastingsSampler(two_dim_prior, initial_state=np.zeros(3))

    def test_stats_reported(self, two_dim_prior, half_plane_constraints):
        pool = MetropolisHastingsSampler(two_dim_prior, rng=0).sample(50, half_plane_constraints)
        assert pool.stats["sampler"] == "MS"
        assert pool.stats["chain_steps"] > 0
        assert pool.stats["chain_seed"] == "rejection"

    def test_a_supplied_initial_state_is_recorded_as_given(
        self, two_dim_prior, half_plane_constraints
    ):
        sampler = MetropolisHastingsSampler(
            two_dim_prior, rng=0, initial_state=np.array([0.5, 0.5])
        )
        assert sampler.sample(5, half_plane_constraints).stats["chain_seed"] == "given"


class TestMcmcSeedFallback:
    def test_chain_seeds_via_interior_point_when_rejection_fails(self):
        """A tiny-prior-mass cone (many constraints, 10 features) must still
        be sampleable: the chain falls back to the Chebyshev interior point
        when rejection seeding exhausts its budget."""
        rng = np.random.default_rng(3)
        hidden = rng.uniform(-1, 1, 10)
        hidden /= np.linalg.norm(hidden)
        directions = rng.normal(size=(80, 10))
        directions[directions @ hidden < 0] *= -1
        constraints = ConstraintSet(directions)
        prior = GaussianMixture.default_prior(10, rng=0)
        sampler = MetropolisHastingsSampler(prior, rng=1)
        pool = sampler.sample(30, constraints)
        assert pool.size == 30
        assert constraints.valid_mask(pool.samples).all()
        assert pool.stats["chain_seed"] == "interior_point"


class TestMcmcDegenerateCone:
    def test_empty_interior_cone_seeds_at_the_origin(self):
        """Feedback on near-identical packages can collapse the valid region
        to an empty-interior wedge (here: a hyperplane, the extreme case).
        The chain must still serve a valid pool — seeded at the cone's apex —
        rather than failing the request."""
        direction = np.array([[0.5, -0.2, 0.1]])
        constraints = ConstraintSet(np.vstack([direction, -direction]))
        assert constraints.interior_point() is None
        prior = GaussianMixture.default_prior(3, rng=0)
        sampler = MetropolisHastingsSampler(prior, rng=1)
        pool = sampler.sample(20, constraints)
        assert pool.size == 20
        assert constraints.valid_mask(pool.samples).all()
        assert pool.stats["chain_seed"] == "apex"


class TestBatchFallbackChainSeed:
    def test_a_fallback_pool_carries_the_chain_seed(self, two_dim_prior):
        """One tiny block cannot fill the set, so the MCMC fallback tops it
        up and its seeding rung is copied onto the batch pool."""
        constraints = ConstraintSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sampler = BatchRejectionSampler(
            two_dim_prior, rng=0, block_size=4, max_blocks=1
        )
        pool = sampler.sample(50, constraints)
        assert pool.stats["fell_back"] is True
        assert pool.stats["chain_seed"] == "rejection"

    def test_a_filled_pool_has_no_chain_seed(self, two_dim_prior):
        pool = BatchRejectionSampler(two_dim_prior, rng=0).sample(
            50, ConstraintSet.empty(2)
        )
        assert pool.stats["fell_back"] is False
        assert "chain_seed" not in pool.stats

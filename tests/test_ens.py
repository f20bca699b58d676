"""Tests for the Effective Number of Samples (ENS) machinery (Equation 3)."""

import numpy as np
import pytest

from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.ens import (
    chi_square_distance,
    effective_number_of_samples,
    ens_from_weights,
    pool_ens,
    truncated_posterior_density,
)
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.importance import ImportanceSampler


class TestEnsFromWeights:
    def test_uniform_weights_equal_count(self):
        assert ens_from_weights(np.ones(50)) == pytest.approx(50.0)

    def test_skewed_weights_reduce_ens(self):
        skewed = ens_from_weights(np.array([10.0, 0.1, 0.1, 0.1]))
        assert skewed < 4.0
        assert skewed >= 1.0

    def test_empty_and_zero_weights(self):
        assert ens_from_weights(np.zeros(0)) == 0.0
        assert ens_from_weights(np.zeros(5)) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ens_from_weights(np.array([1.0, -0.5]))

    def test_pool_ens_wrapper(self):
        pool = SamplePool.unweighted(np.zeros((7, 2)))
        assert pool_ens(pool) == pytest.approx(7.0)


class TestChiSquare:
    def test_identical_distributions_have_zero_distance(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        points = prior.sample(500, rng=1)
        distance = chi_square_distance(prior.pdf, prior.pdf, points)
        assert distance == pytest.approx(0.0, abs=1e-12)

    def test_different_distributions_have_positive_distance(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        shifted = GaussianMixture.isotropic(np.array([0.6, 0.6]), 0.25)
        points = shifted.sample(500, rng=1)
        assert chi_square_distance(prior.pdf, shifted.pdf, points) > 0.01

    def test_empty_points_rejected(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        with pytest.raises(ValueError):
            chi_square_distance(prior.pdf, prior.pdf, np.zeros((0, 2)))


class TestEffectiveNumberOfSamples:
    def test_equation_three_maximum(self):
        """ENS reaches its maximum N when proposal equals the target."""
        prior = GaussianMixture.default_prior(2, rng=0)
        points = prior.sample(300, rng=1)
        ens = effective_number_of_samples(300, prior.pdf, prior.pdf, points)
        assert ens == pytest.approx(300.0)

    def test_negative_sample_count_rejected(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        with pytest.raises(ValueError):
            effective_number_of_samples(-1, prior.pdf, prior.pdf, prior.sample(10, rng=0))

    def test_theorem1_ordering_importance_at_least_rejection(self):
        """Theorem 1: the feedback-aware proposal is no farther from the posterior.

        We estimate the χ²-based ENS of the rejection 'proposal' (the prior
        itself) and of the importance proposal against the truncated posterior;
        the importance sampler should not be worse.
        """
        prior = GaussianMixture.default_prior(2, rng=0)
        # Constraints that carve out a clearly off-centre region.
        constraints = ConstraintSet(np.array([[1.0, 0.2], [0.3, 1.0]]))
        posterior = truncated_posterior_density(prior, constraints, rng=0)

        importance = ImportanceSampler(prior, rng=1)
        proposal = importance.build_proposal(constraints)

        evaluation_points = prior.sample(4000, rng=2)
        n = 1000
        ens_rejection = effective_number_of_samples(
            n, posterior, prior.pdf, evaluation_points
        )
        proposal_points = proposal.sample(4000, rng=3)
        ens_importance = effective_number_of_samples(
            n, posterior, proposal.pdf, proposal_points
        )
        assert ens_importance >= ens_rejection * 0.95  # allow Monte-Carlo slack


class TestTruncatedPosterior:
    def test_density_zero_outside_valid_region(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        density = truncated_posterior_density(prior, constraints, rng=0)
        values = density(np.array([[0.5, 0.0], [-0.5, 0.0]]))
        assert values[0] > 0.0
        assert values[1] == 0.0

    def test_density_renormalised_upward(self):
        prior = GaussianMixture.default_prior(2, rng=0)
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        density = truncated_posterior_density(prior, constraints, rng=0)
        point = np.array([[0.4, 0.1]])
        assert density(point)[0] > prior.pdf(point)[0]

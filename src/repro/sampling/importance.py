"""Importance sampling with a grid-approximated polytope centre (§3.2.1).

Instead of sampling from the prior and rejecting, the importance sampler draws
from a Gaussian *proposal* ``Qw ~ N(w*, Σ)`` whose mean ``w*`` approximates the
centre of the convex region of valid weight vectors.  The centre is estimated
with a regular grid over ``[-1, 1]^m``: cells that cannot contain any valid
weight vector are discarded and ``w*`` is the mean of the surviving cell
centres (Figure 3 of the paper).  Each accepted sample carries the importance
weight ``q(w) = Pw(w) / Qw(w)`` that corrects for the change of distribution.

The grid is exponential in the number of features, which is exactly why the
paper excludes importance sampling from the high-dimensional experiments
(Figure 6 f–j); :class:`ImportanceSampler` enforces the same cut-off via
``max_features_for_grid`` and raises
:class:`ImportanceSamplingIntractableError` beyond it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.index.grid import GridTooLargeError, WeightSpaceGrid
from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.utils.rng import RngLike


class ImportanceSamplingIntractableError(RuntimeError):
    """Raised when the grid-based centre computation is infeasible (too many features)."""


class ImportanceSampler(Sampler):
    """Feedback-aware importance sampling over the valid weight region.

    Parameters
    ----------
    prior, rng, noise_probability:
        See :class:`~repro.sampling.base.Sampler`.
    cells_per_dim:
        Grid resolution per dimension used for the centre approximation.
    proposal_std:
        Standard deviation of the isotropic Gaussian proposal around the
        approximate centre.
    max_features_for_grid:
        Dimensionality above which the grid-based centre is refused, mirroring
        the paper's observation that the approach breaks down beyond ~5
        features.
    batch_size, max_attempts:
        Vectorised batch size and overall attempt cap, as for rejection
        sampling (invalid proposal draws are still rejected).
    """

    short_name = "IS"

    def __init__(
        self,
        prior: GaussianMixture,
        rng: RngLike = None,
        noise_probability: Optional[float] = None,
        cells_per_dim: int = 4,
        proposal_std: float = 0.35,
        max_features_for_grid: int = 5,
        batch_size: int = 1024,
        max_attempts: int = 2_000_000,
    ) -> None:
        super().__init__(prior, rng, noise_probability)
        if cells_per_dim <= 0:
            raise ValueError(f"cells_per_dim must be > 0, got {cells_per_dim}")
        if proposal_std <= 0:
            raise ValueError(f"proposal_std must be > 0, got {proposal_std}")
        if max_features_for_grid <= 0:
            raise ValueError(
                f"max_features_for_grid must be > 0, got {max_features_for_grid}"
            )
        if batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {batch_size}")
        self.cells_per_dim = cells_per_dim
        self.proposal_std = proposal_std
        self.max_features_for_grid = max_features_for_grid
        self.batch_size = batch_size
        self.max_attempts = max_attempts

    # --------------------------------------------------------------- proposal
    def approximate_center(self, constraints: ConstraintSet) -> np.ndarray:
        """Grid-based approximation of the centre of the valid region.

        Raises
        ------
        ImportanceSamplingIntractableError
            If the number of features exceeds ``max_features_for_grid`` or the
            grid would exceed its internal cell cap.
        """
        if self.num_features > self.max_features_for_grid:
            raise ImportanceSamplingIntractableError(
                f"grid-based centre approximation is exponential in the number of "
                f"features; {self.num_features} features exceeds the configured "
                f"limit of {self.max_features_for_grid} (see paper Fig. 6f-j)"
            )
        try:
            grid = WeightSpaceGrid(self.num_features, self.cells_per_dim)
        except GridTooLargeError as exc:
            raise ImportanceSamplingIntractableError(str(exc)) from exc
        grid.prune_all(constraints.directions)
        return grid.approximate_center()

    def build_proposal(self, constraints: ConstraintSet) -> GaussianMixture:
        """The Gaussian proposal distribution ``Qw ~ N(w*, proposal_std² I)``."""
        center = self.approximate_center(constraints)
        return GaussianMixture.isotropic(center, self.proposal_std**2)

    # ---------------------------------------------------------------- sampling
    def sample(self, count: int, constraints: ConstraintSet) -> SamplePool:
        """Draw ``count`` valid samples with importance weights ``Pw(w)/Qw(w)``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if constraints.num_features != self.num_features:
            raise ValueError(
                f"constraints have {constraints.num_features} features, "
                f"sampler expects {self.num_features}"
            )
        proposal = self.build_proposal(constraints)
        center, covariance = proposal.means[0], proposal.covariances[0]
        accepted_samples = []
        accepted_weights = []
        attempts = 0
        total_accepted = 0
        while total_accepted < count:
            if attempts >= self.max_attempts:
                # Typed so callers can exclude IS from a workload it cannot
                # complete, exactly like the feature-count cut-off.
                raise ImportanceSamplingIntractableError(
                    f"importance sampling exhausted {attempts} proposal draws while "
                    f"collecting {total_accepted}/{count} valid samples"
                )
            batch = min(self.batch_size, self.max_attempts - attempts)
            draws = self.rng.multivariate_normal(center, covariance, size=batch)
            attempts += batch
            if self.noise_probability is None:
                mask = constraints.valid_mask(draws)
            else:
                violations = constraints.violation_counts(draws)
                mask = np.array(
                    [not self._rejects_under_noise(int(x)) for x in violations]
                )
            valid = draws[mask]
            if valid.shape[0] == 0:
                continue
            prior_density = self.prior.pdf(valid)
            proposal_density = proposal.pdf(valid)
            proposal_density = np.where(proposal_density <= 0, np.finfo(float).tiny, proposal_density)
            weights = prior_density / proposal_density
            accepted_samples.append(valid)
            accepted_weights.append(weights)
            total_accepted += valid.shape[0]
        samples = np.vstack(accepted_samples)[:count]
        weights = np.concatenate(accepted_weights)[:count]
        stats = {
            "sampler": self.short_name,
            "attempts": attempts,
            "accepted": int(total_accepted),
            "rejected": int(attempts - total_accepted),
            "acceptance_rate": (total_accepted / attempts) if attempts else 1.0,
            "proposal_mean": center.tolist(),
        }
        return SamplePool(samples, weights, stats)

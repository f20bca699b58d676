"""Metropolis–Hastings MCMC sampling inside the valid region (§3.2.2).

Because the valid weight vectors form a single continuous convex region
(Lemma 2), the sampler first finds one valid vector (via rejection sampling,
or the cone's Chebyshev centre when rejection cannot hit the cone) and then
performs a bounded random walk inside the region:

* the proposal ``Q(w' | w)`` is uniform over the ball of radius ``l_max``
  around the current state (symmetric, so it cancels in the acceptance ratio);
* a proposed ``w'`` that violates any feedback constraint is rejected outright
  (a copy of the current state is kept instead), so the chain never leaves the
  valid region;
* otherwise ``w'`` is accepted with probability
  ``α = min(1, Pw(w') / Pw(w))`` (Equation 7);
* following standard practice only every ``thinning``-th state is emitted to
  the final pool, to reduce autocorrelation (the paper's step length δ).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.rejection import RejectionSampler, RejectionSamplingError
from repro.utils.rng import RngLike


class MetropolisHastingsSampler(Sampler):
    """Constrained Metropolis–Hastings sampler over the weight posterior.

    Parameters
    ----------
    prior, rng, noise_probability:
        See :class:`~repro.sampling.base.Sampler`.
    step_length:
        Maximum random-walk step ``l_max`` (Equation 6).
    thinning:
        Keep one state out of every ``thinning`` accepted-or-copied states
        (the paper's step length δ).
    burn_in:
        Number of initial chain states discarded before collecting samples.
    initial_state:
        Optional known-valid starting weight vector; when omitted a rejection
        sampler finds one.
    """

    short_name = "MS"

    def __init__(
        self,
        prior: GaussianMixture,
        rng: RngLike = None,
        noise_probability: Optional[float] = None,
        step_length: float = 0.25,
        thinning: int = 5,
        burn_in: int = 100,
        initial_state: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(prior, rng, noise_probability)
        if step_length <= 0:
            raise ValueError(f"step_length must be > 0, got {step_length}")
        if thinning <= 0:
            raise ValueError(f"thinning must be > 0, got {thinning}")
        if burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {burn_in}")
        self.step_length = step_length
        self.thinning = thinning
        self.burn_in = burn_in
        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=float)
            if initial_state.shape != (self.num_features,):
                raise ValueError(
                    f"initial_state must have shape ({self.num_features},), "
                    f"got {initial_state.shape}"
                )
        self.initial_state = initial_state

    # ---------------------------------------------------------------- proposal
    def _propose(self, current: np.ndarray) -> np.ndarray:
        """A uniform draw from the ball of radius ``step_length`` around ``current``."""
        direction = self.rng.normal(size=self.num_features)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            return current.copy()
        direction /= norm
        # Radius with density proportional to the surface measure so the draw
        # is uniform in the ball, not concentrated at the centre.
        radius = self.step_length * self.rng.random() ** (1.0 / self.num_features)
        return current + direction * radius

    def _find_initial_state(self, constraints: ConstraintSet) -> Tuple[np.ndarray, str]:
        """Find a valid starting point for the chain, and the rung that found it.

        Rejection sampling from the prior is tried first (a start distributed
        like the prior, as the paper assumes); when the valid region's prior
        mass is below the rejection budget — high dimensionality, many
        accumulated preferences — the Chebyshev interior point of the
        constraint cone (a NumPy LP, :meth:`ConstraintSet.interior_point`)
        seeds the chain instead, and burn-in washes out the deterministic
        start.  Under hard constraints the LP runs first: a cone without an
        interior point cannot be hit by rejection either, so such a chain
        starts at the apex without spending the rejection budget.  Under a
        noise model soft rejection can accept points outside the cone, so
        rejection still goes first there.  The rung, recorded in
        ``stats["chain_seed"]``, is ``"given"`` (the caller's
        ``initial_state``), ``"rejection"``, ``"interior_point"`` or
        ``"apex"``.
        """
        if self.initial_state is not None:
            if self.noise_probability is None and not constraints.is_valid(self.initial_state):
                raise ValueError("the supplied initial_state violates the constraints")
            return self.initial_state, "given"
        hard = self.noise_probability is None
        interior = constraints.interior_point() if hard else None
        if interior is not None or not hard:
            # A bounded seeding budget: below ~1e-5 acceptance, rejection
            # seeding is hopeless and the interior point is both faster and
            # sure.
            seeder = RejectionSampler(
                self.prior,
                rng=self.rng,
                noise_probability=self.noise_probability,
                max_attempts=200_000,
            )
            try:
                return seeder.sample_one_valid(constraints), "rejection"
            except RejectionSamplingError:
                if interior is None:
                    interior = constraints.interior_point()
            if interior is not None:
                return interior, "interior_point"
        # Degenerate feedback (e.g. near-identical presented packages) can
        # collapse the cone to an empty-interior wedge.  Its apex — the
        # origin — always satisfies the homogeneous half-spaces w · d >= 0
        # (with equality), so the chain starts there and the request is
        # served instead of failing.  On a measure-zero wedge the chain may
        # never move, degrading the pool to copies of the apex — the mean of
        # a symmetric degenerate posterior; sampling *within* the wedge's
        # affine hull (facial reduction) is a noted follow-on in ROADMAP.md.
        return np.zeros(self.num_features), "apex"

    # ---------------------------------------------------------------- sampling
    def sample(self, count: int, constraints: ConstraintSet) -> SamplePool:
        """Run the chain until ``count`` thinned samples have been collected."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if constraints.num_features != self.num_features:
            raise ValueError(
                f"constraints have {constraints.num_features} features, "
                f"sampler expects {self.num_features}"
            )
        if count == 0:
            return SamplePool.empty(self.num_features)

        current, chain_seed = self._find_initial_state(constraints)
        current_density = float(self.prior.pdf(current))
        collected = np.zeros((count, self.num_features))
        collected_count = 0
        steps = 0
        proposals_rejected_constraint = 0
        proposals_rejected_mh = 0
        proposals_accepted = 0

        total_states_needed = self.burn_in + count * self.thinning
        while collected_count < count:
            steps += 1
            candidate = self._propose(current)
            accepted = False
            if self._accepts(candidate, constraints):
                candidate_density = float(self.prior.pdf(candidate))
                if current_density <= 0:
                    alpha = 1.0
                else:
                    alpha = min(1.0, candidate_density / current_density)
                if self.rng.random() < alpha:
                    current = candidate
                    current_density = candidate_density
                    accepted = True
                else:
                    proposals_rejected_mh += 1
            else:
                proposals_rejected_constraint += 1
            if accepted:
                proposals_accepted += 1
            # Whether accepted or not, the chain emits a state (a copy of the
            # current w on rejection, exactly as in the paper).
            if steps > self.burn_in and (steps - self.burn_in) % self.thinning == 0:
                collected[collected_count] = current
                collected_count += 1
            if steps > 100 * max(total_states_needed, 1):
                raise RuntimeError(
                    "MCMC chain failed to collect the requested samples; "
                    "check that the constraint region is non-empty"
                )
        stats = {
            "sampler": self.short_name,
            "chain_steps": steps,
            "accepted_moves": proposals_accepted,
            "rejected_by_constraints": proposals_rejected_constraint,
            "rejected_by_mh": proposals_rejected_mh,
            "acceptance_rate": proposals_accepted / steps if steps else 1.0,
            "burn_in": self.burn_in,
            "thinning": self.thinning,
            "chain_seed": chain_seed,
        }
        return SamplePool.unweighted(collected, stats)

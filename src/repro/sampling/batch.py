"""Vectorised batch sampling across many constraint sets at once.

The per-user samplers (§3.1–3.2) draw weight vectors for *one* constraint set
with per-candidate Python loops.  A serving layer that keeps thousands of
elicitation sessions alive simultaneously needs the transposed strategy:
draw one large block of candidates from the shared prior ``Pw`` with a single
vectorised numpy call, then test that same block against *every* pending
constraint set with one matrix product each.  Because rejection sampling
accepts exactly the prior restricted to the valid region, the per-set result
is distributed identically to :class:`~repro.sampling.rejection.RejectionSampler`
output — only the batching differs.

Constraint sets whose valid region is too small for shared blocks to fill
within the attempt budget fall back to a per-set sampler (MCMC by default),
so heavily-constrained late-session posteriors never starve the batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.utils.rng import RngLike


class BatchRejectionSampler(Sampler):
    """Rejection sampling from the prior, vectorised over many constraint sets.

    Parameters
    ----------
    prior, rng, noise_probability:
        See :class:`~repro.sampling.base.Sampler`.  With a noise model the
        soft-rejection probabilities are applied vectorised per block.
    block_size:
        Number of prior candidates drawn per shared block.
    max_blocks:
        Blocks attempted before an unfilled constraint set falls back to the
        per-set ``fallback`` sampler.
    fallback:
        Sampler used to top up constraint sets the shared blocks could not
        fill; defaults to a :class:`MetropolisHastingsSampler` over the same
        prior (``None`` explicitly disables the fallback, in which case
        underfull pools are returned as-is).
    """

    short_name = "BS"

    def __init__(
        self,
        prior: GaussianMixture,
        rng: RngLike = None,
        noise_probability: Optional[float] = None,
        block_size: int = 2048,
        max_blocks: int = 64,
        fallback: Optional[Sampler] = "default",
    ) -> None:
        super().__init__(prior, rng, noise_probability)
        if block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        if max_blocks <= 0:
            raise ValueError(f"max_blocks must be > 0, got {max_blocks}")
        self.block_size = int(block_size)
        self.max_blocks = int(max_blocks)
        if fallback == "default":
            fallback = MetropolisHastingsSampler(
                prior, rng=self.rng, noise_probability=noise_probability
            )
        self.fallback = fallback

    # ------------------------------------------------------------------ single
    def sample(self, count: int, constraints: ConstraintSet) -> SamplePool:
        """Sampler-ABC entry point: a batch of one constraint set."""
        return self.sample_many([constraints], [count])[0]

    # ------------------------------------------------------------------- batch
    def _accept_mask(self, block: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
        """Vectorised acceptance test of every block row against one set."""
        if self.noise_probability is None:
            return constraints.valid_mask(block)
        violations = constraints.violation_counts(block)
        reject_probability = 1.0 - (1.0 - self.noise_probability) ** violations
        return self.rng.random(block.shape[0]) >= reject_probability

    def sample_many(
        self,
        constraint_sets: Sequence[ConstraintSet],
        counts,
    ) -> List[SamplePool]:
        """Draw one pool per constraint set, sharing candidate blocks.

        ``counts`` is either one integer applied to every set or a sequence
        with one pool size per set.  Returns the pools in input order.
        """
        constraint_sets = list(constraint_sets)
        if np.isscalar(counts):
            counts = [int(counts)] * len(constraint_sets)
        counts = [int(c) for c in counts]
        if len(counts) != len(constraint_sets):
            raise ValueError(
                f"got {len(counts)} counts for {len(constraint_sets)} constraint sets"
            )
        for constraints in constraint_sets:
            if constraints.num_features != self.num_features:
                raise ValueError(
                    f"constraints have {constraints.num_features} features, "
                    f"sampler expects {self.num_features}"
                )
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")

        accepted: List[List[np.ndarray]] = [[] for _ in constraint_sets]
        filled = [0] * len(constraint_sets)
        pending = [i for i, c in enumerate(counts) if c > 0]
        blocks_drawn = 0
        candidates_drawn = 0
        while pending and blocks_drawn < self.max_blocks:
            block = self.prior.sample(self.block_size, rng=self.rng)
            blocks_drawn += 1
            candidates_drawn += block.shape[0]
            still_pending = []
            for i in pending:
                mask = self._accept_mask(block, constraint_sets[i])
                needed = counts[i] - filled[i]
                valid = block[mask][:needed]
                if valid.shape[0]:
                    accepted[i].append(valid)
                    filled[i] += valid.shape[0]
                if filled[i] < counts[i]:
                    still_pending.append(i)
            pending = still_pending

        pools: List[SamplePool] = []
        for i, constraints in enumerate(constraint_sets):
            rows = (
                np.vstack(accepted[i])
                if accepted[i]
                else np.zeros((0, self.num_features))
            )
            stats = {
                "sampler": self.short_name,
                "blocks_drawn": blocks_drawn,
                "candidates_drawn": candidates_drawn,
                "shared_sets": len(constraint_sets),
                "fell_back": False,
            }
            if filled[i] < counts[i] and self.fallback is not None:
                remainder = self.fallback.sample(counts[i] - filled[i], constraints)
                rows = np.vstack([rows, remainder.samples]) if rows.size else remainder.samples
                stats["fell_back"] = True
                if "chain_seed" in remainder.stats:
                    stats["chain_seed"] = remainder.stats["chain_seed"]
            pools.append(SamplePool.unweighted(rows, stats))
        return pools

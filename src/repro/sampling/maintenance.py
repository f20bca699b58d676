"""Sample maintenance against newly received feedback (§3.4, Algorithm 1).

When a new preference ``ρ := p1 ≻ p2`` arrives, the previously generated
sample pool does not have to be regenerated: samples that still satisfy ρ
remain correctly distributed (Lemma 1) and only the violators must be replaced.
Finding the violators — all ``w`` with ``w · (p2 - p1) > 0`` — is a top-k-style
problem over the pool, and the paper evaluates three strategies (Figure 7):

* **Naive** — scan every sample in the pool and test it against ρ.
* **Threshold-algorithm (TA) based** — keep one list of samples per feature,
  sorted by that feature's value; walk the lists in round-robin order of
  decreasing possible score ``w · q`` and stop as soon as the boundary value
  vector τ proves no unseen sample can violate ρ.  Very fast when few samples
  violate the new feedback, but pays a large overhead when many do.
* **Hybrid (Algorithm 1)** — start with TA and fall back to scanning the rest
  of the current list once ``C_processed + C_remain ≥ (1 + γ)·|S|``.

:class:`SampleMaintainer` wires a strategy together with a sampler so the
violators can also be *replaced* under the updated constraint set.  Under the
§7 noise model the maintainer additionally supports **soft maintenance**
(:meth:`SampleMaintainer.soft_apply_feedback`): instead of dropping the
violators, their importance weights are scaled by ``1 − ψ`` — the incremental
form of noise-model importance reweighting
(:func:`~repro.sampling.reweight.downweight_violators`) — so the pool keeps
its size without any resampling and downstream weighted top-k scoring
accounts for the discounted samples.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.reweight import (
    ess_deficit,
    importance_reweight,
    pool_effective_sample_size,
)
from repro.utils.validation import (
    require_matrix,
    require_probability,
    require_vector,
)


def partial_refill_split(
    pool: SamplePool,
    constraints: ConstraintSet,
    psi: float,
    count: int,
    min_ess_fraction: float,
) -> tuple:
    """Split a stale pool into ψ-reweighted survivors plus an ESS fill deficit.

    The hybrid of §3.4 maintenance and §7 reweighting the serving engine's
    pool provisioning fuses: instead of choosing between *keep the survivors,
    top up the violators* (hard maintenance) and *reweight everything, accept
    or reject wholesale* (adaptation), reweight the stale pool under the §7
    noise model and compute how many fresh unit-weight draws are needed to
    lift its Kish ESS to ``min_ess_fraction × count``.  Returns
    ``(reweighted_pool, deficit)`` with ``deficit`` capped at ``count``;
    returns ``(None, count)`` when no mass survives reweighting (the caller
    should fall back to a full from-scratch fill).
    """
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    require_probability(min_ess_fraction, "min_ess_fraction")
    reweighted = importance_reweight(pool, constraints, psi)
    if pool_effective_sample_size(reweighted) <= 0.0:
        return None, count
    deficit = ess_deficit(reweighted, min_ess_fraction * count)
    return reweighted, min(deficit, count)


@dataclass
class MaintenanceResult:
    """Outcome of locating the samples that violate one new preference.

    Attributes
    ----------
    violating_indices:
        Sorted indices (into the pool) of samples violating the new feedback.
    accesses:
        Number of individual sample accesses the strategy performed; the work
        metric compared across strategies in Figure 7.
    strategy:
        Short name of the strategy that produced the result.
    fell_back:
        For the hybrid strategy: whether the TA phase aborted and fell back to
        scanning (always False for the other strategies).
    """

    violating_indices: np.ndarray
    accesses: int
    strategy: str
    fell_back: bool = False

    @property
    def num_violations(self) -> int:
        """Number of violating samples found."""
        return int(self.violating_indices.shape[0])


class MaintenanceStrategy(abc.ABC):
    """Strategy interface: find pool samples violating one new preference."""

    short_name: str = "base"

    @abc.abstractmethod
    def find_violations(self, samples: np.ndarray, direction: np.ndarray) -> MaintenanceResult:
        """Indices of samples violating the preference with half-space ``direction``.

        ``direction`` follows the :class:`ConstraintSet` convention
        (``d = p_preferred - p_other``): a sample ``w`` violates the preference
        iff ``w · d < 0`` (equivalently ``w · (p2 - p1) > 0`` as in the paper).
        """


class NaiveMaintenance(MaintenanceStrategy):
    """Scan every sample in the pool and test it against the new preference."""

    short_name = "naive"

    def find_violations(self, samples: np.ndarray, direction: np.ndarray) -> MaintenanceResult:
        samples = require_matrix(samples, "samples")
        direction = require_vector(direction, "direction", length=samples.shape[1])
        violating: List[int] = []
        accesses = 0
        for index in range(samples.shape[0]):
            accesses += 1
            if float(samples[index] @ direction) < 0.0:
                violating.append(index)
        return MaintenanceResult(
            np.asarray(sorted(violating), dtype=int), accesses, self.short_name
        )


class ThresholdMaintenance(MaintenanceStrategy):
    """TA-style search for violating samples over per-feature sorted lists.

    The lists are built once per pool (`prepare`) and reused for every new
    preference, mirroring the "preprocessed sample lists" of §5.5.
    """

    short_name = "ta"

    def __init__(self) -> None:
        self._ascending_orders: Optional[np.ndarray] = None
        self._samples: Optional[np.ndarray] = None

    def prepare(self, samples: np.ndarray) -> None:
        """Precompute per-feature sorted orderings of the pool."""
        samples = require_matrix(samples, "samples")
        self._samples = samples
        self._ascending_orders = np.argsort(samples, axis=0, kind="stable")

    def _ensure_prepared(self, samples: np.ndarray) -> None:
        if self._samples is None or self._samples is not samples:
            self.prepare(samples)

    def find_violations(self, samples: np.ndarray, direction: np.ndarray) -> MaintenanceResult:
        return self._run(samples, direction, gamma=None)

    # The hybrid strategy reuses the same walking logic with a fall-back.
    def _run(
        self, samples: np.ndarray, direction: np.ndarray, gamma: Optional[float]
    ) -> MaintenanceResult:
        samples = require_matrix(samples, "samples")
        direction = require_vector(direction, "direction", length=samples.shape[1])
        self._ensure_prepared(samples)
        num_samples, num_features = samples.shape
        # Violation condition: w · direction < 0, i.e. w · q > 0 for q = -direction.
        query = -direction
        active_features = [j for j in range(num_features) if query[j] != 0.0]
        if not active_features:
            # The two packages have identical feature vectors: nothing can violate.
            return MaintenanceResult(np.zeros(0, dtype=int), 0, self._name(gamma))

        # Per active feature, the order of samples by decreasing contribution
        # query[j] * w[j]: descending values when query[j] > 0, ascending otherwise.
        orders = {}
        for j in active_features:
            ascending = self._ascending_orders[:, j]
            orders[j] = ascending[::-1] if query[j] > 0 else ascending
        positions = {j: 0 for j in active_features}
        boundary = {j: None for j in active_features}

        seen: Set[int] = set()
        violating: Set[int] = set()
        accesses = 0
        fell_back = False
        feature_cycle = list(active_features)
        cursor = 0

        while True:
            # Pick the next list (round-robin) that still has unread entries.
            attempts = 0
            while attempts < len(feature_cycle):
                j = feature_cycle[cursor % len(feature_cycle)]
                cursor += 1
                attempts += 1
                if positions[j] < num_samples:
                    break
            else:
                break  # every list exhausted
            if positions[j] >= num_samples:
                break

            index = int(orders[j][positions[j]])
            positions[j] += 1
            boundary[j] = samples[index, j]
            if index not in seen:
                seen.add(index)
                accesses += 1
                if float(samples[index] @ query) > 0.0:
                    violating.add(index)

            # Threshold test: the best possible score of an unseen sample is
            # bounded by the boundary value vector τ of the last accessed
            # entries (using the per-feature extreme for lists not touched yet).
            tau_score = 0.0
            for f in active_features:
                if boundary[f] is None:
                    column = samples[:, f]
                    tau_value = column.max() if query[f] > 0 else column.min()
                else:
                    tau_value = boundary[f]
                tau_score += query[f] * tau_value
            if tau_score <= 0.0:
                break

            if gamma is not None:
                processed = sum(positions.values())
                remaining_in_current = num_samples - positions[j]
                if processed + remaining_in_current >= (1.0 + gamma) * num_samples:
                    # Fall back: scan the remainder of the current list directly.
                    fell_back = True
                    for pos in range(positions[j], num_samples):
                        index = int(orders[j][pos])
                        if index in seen:
                            continue
                        seen.add(index)
                        accesses += 1
                        if float(samples[index] @ query) > 0.0:
                            violating.add(index)
                    break

        return MaintenanceResult(
            np.asarray(sorted(violating), dtype=int),
            accesses,
            self._name(gamma),
            fell_back=fell_back,
        )

    @staticmethod
    def _name(gamma: Optional[float]) -> str:
        return "ta" if gamma is None else "hybrid"


class HybridMaintenance(ThresholdMaintenance):
    """Algorithm 1: TA-based search with a γ-controlled fall-back to scanning."""

    short_name = "hybrid"

    def __init__(self, gamma: float = 0.025) -> None:
        super().__init__()
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.gamma = gamma

    def find_violations(self, samples: np.ndarray, direction: np.ndarray) -> MaintenanceResult:
        return self._run(samples, direction, gamma=self.gamma)


@dataclass
class SampleMaintainer:
    """Maintain a sample pool against incoming feedback (replace violators only).

    Parameters
    ----------
    strategy:
        How violating samples are located (naive / TA / hybrid).
    sampler:
        Sampler used to draw replacement samples under the updated constraints;
        optional — without it, violators are simply dropped.
    """

    strategy: MaintenanceStrategy
    sampler: Optional[Sampler] = None

    def apply_feedback(
        self,
        pool: SamplePool,
        direction: np.ndarray,
        updated_constraints: Optional[ConstraintSet] = None,
        replace: bool = True,
    ) -> tuple:
        """Apply one new preference to the pool.

        Returns ``(new_pool, maintenance_result)``.  When ``replace`` is true
        and a sampler is configured, the violating samples are replaced by
        fresh draws that satisfy ``updated_constraints`` so the pool keeps its
        size; otherwise violators are dropped.
        """
        direction = require_vector(direction, "direction", length=pool.num_features)
        result = self.strategy.find_violations(pool.samples, direction)
        if result.num_violations == 0:
            return pool, result
        keep_mask = np.ones(pool.size, dtype=bool)
        keep_mask[result.violating_indices] = False
        surviving = pool.subset(keep_mask)
        if not replace or self.sampler is None:
            return surviving, result
        if updated_constraints is None:
            raise ValueError(
                "updated_constraints is required when replacing violating samples"
            )
        replacement = self.sampler.sample(result.num_violations, updated_constraints)
        return surviving.concatenate(replacement), result

    def soft_apply_feedback(
        self, pool: SamplePool, direction: np.ndarray, psi: float
    ) -> tuple:
        """Weighted (§7) maintenance: downweight the violators instead of dropping.

        The configured strategy still *locates* the violating samples (so the
        Figure-7 access accounting applies unchanged), but each violator's
        importance weight is multiplied by ``1 − ψ`` — the probability the new
        preference was itself noise — rather than being replaced or removed.
        The pool keeps its size, no sampler is invoked, and at ψ = 1 the
        result carries the same surviving mass as hard maintenance (violators
        get weight 0 instead of disappearing).  Returns
        ``(new_pool, maintenance_result)``.
        """
        require_probability(psi, "psi")
        direction = require_vector(direction, "direction", length=pool.num_features)
        result = self.strategy.find_violations(pool.samples, direction)
        if result.num_violations == 0:
            return pool, result
        # Scale exactly the indices the strategy located (recomputing the
        # violation mask would throw away the TA/hybrid access savings).
        weights = pool.weights.copy()
        weights[result.violating_indices] *= 1.0 - psi
        return (
            SamplePool(pool.samples.copy(), weights, dict(pool.stats)),
            result,
        )

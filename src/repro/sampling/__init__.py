"""Constrained sampling over the weight-vector distribution ``Pw`` (§3).

The posterior over weight vectors given click feedback has no closed form, so
the system keeps the Gaussian-mixture prior plus the feedback constraints and
draws *constrained samples* instead.  Three samplers are provided, mirroring
the paper: rejection sampling (§3.1), importance sampling with a grid-based
approximate polytope centre (§3.2.1), and Metropolis–Hastings MCMC (§3.2.2).
Sample pools can be maintained incrementally against new feedback (§3.4).
"""

from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.rejection import RejectionSampler
from repro.sampling.importance import ImportanceSampler, ImportanceSamplingIntractableError
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.fillspec import (
    FillSpec,
    build_sampler,
    derive_fill_seed,
    execute_fill,
)
from repro.sampling.ens import (
    effective_number_of_samples,
    ens_from_weights,
    chi_square_distance,
)
from repro.sampling.constraints import ConstraintChecker
from repro.sampling.reweight import (
    downweight_violators,
    ess_deficit,
    importance_reweight,
    pool_effective_sample_size,
    residual_resample,
    violation_weight_factors,
)
from repro.sampling.maintenance import (
    HybridMaintenance,
    MaintenanceResult,
    NaiveMaintenance,
    SampleMaintainer,
    ThresholdMaintenance,
    partial_refill_split,
)

__all__ = [
    "GaussianMixture",
    "ConstraintSet",
    "SamplePool",
    "Sampler",
    "RejectionSampler",
    "ImportanceSampler",
    "ImportanceSamplingIntractableError",
    "MetropolisHastingsSampler",
    "BatchRejectionSampler",
    "FillSpec",
    "build_sampler",
    "derive_fill_seed",
    "execute_fill",
    "effective_number_of_samples",
    "ens_from_weights",
    "chi_square_distance",
    "ConstraintChecker",
    "downweight_violators",
    "ess_deficit",
    "importance_reweight",
    "pool_effective_sample_size",
    "residual_resample",
    "violation_weight_factors",
    "partial_refill_split",
    "SampleMaintainer",
    "NaiveMaintenance",
    "ThresholdMaintenance",
    "HybridMaintenance",
    "MaintenanceResult",
]

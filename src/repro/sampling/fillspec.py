"""Pool-fill specifications: one fill described as plain data.

* :class:`FillSpec` — a frozen dataclass that fully describes one pool fill:
  the pool key, the constraint rows, the sample count, the sampler kind and
  its parameters, and the *derived* RNG seed (engine seed + pool key).
* :func:`build_sampler` / :func:`execute_fill` — resolution:
  ``build_sampler(spec, prior)`` constructs the sampler (kind + parameters +
  seeded RNG) for the engine's prior; ``execute_fill(spec, prior)`` runs the
  fill and returns the :class:`~repro.sampling.base.SamplePool`.
* :func:`derive_fill_seed` — the key-deterministic seed derivation
  (blake2b over ``pool-fill:<seed root>:<key>``), the one formula every
  fill's RNG seed comes from.

Determinism contract: a fill's output is a function of the spec and the
prior and nothing else, so fills may run in any order or batching, and a
pool evicted from the repository refills bit-identically.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.gaussian_mixture import GaussianMixture

__all__ = [
    "FillSpec",
    "SAMPLER_KINDS",
    "build_sampler",
    "derive_fill_seed",
    "execute_fill",
]

#: Sampler kinds a :class:`FillSpec` may name.  ``"batch"`` is
#: the engine default (vectorised block rejection with per-set MCMC fallback);
#: the other three are the paper's per-session samplers.
SAMPLER_KINDS = ("batch", "rejection", "importance", "mcmc")


def derive_fill_seed(seed_root: int, key: str) -> int:
    """The key-deterministic fill seed: blake2b over the root and the key.

    This is the serving stack's determinism contract in one function: the
    sampler RNG for pool ``key`` depends only on the engine's seed root and
    the key itself, so a pool refills bit-identically whenever it is
    rebuilt, in whatever order or batch.
    """
    digest = hashlib.blake2b(
        f"pool-fill:{seed_root}:{key}".encode(), digest_size=16
    ).digest()
    return int.from_bytes(digest, "big")


def _nested_tuple(array: np.ndarray) -> tuple:
    """A nested tuple of Python floats mirroring ``array`` (exact for float64)."""
    if array.ndim == 1:
        return tuple(float(v) for v in array)
    return tuple(_nested_tuple(row) for row in array)


# ===================================================================== specs
@dataclass(frozen=True)
class FillSpec:
    """A complete, picklable description of one pool fill.

    Attributes
    ----------
    key:
        The pool key (``n<count>:<fingerprint>``) the fill is for.
    count:
        Number of samples to draw.
    num_features:
        Dimensionality of the weight space (fixes empty constraint sets).
    constraint_rows:
        The constraint set's half-space normals as a tuple of row tuples —
        plain data, not a live :class:`ConstraintSet`.
    sampler:
        One of :data:`SAMPLER_KINDS`.
    seed:
        The fully *derived* RNG seed (:func:`derive_fill_seed` applied
        engine-side), so the fill's randomness depends on the spec alone.
    noise_psi:
        The §7 feedback-noise parameter, or ``None`` for hard constraints.
    """

    key: str
    count: int
    num_features: int
    constraint_rows: Tuple[Tuple[float, ...], ...]
    sampler: str
    seed: int
    noise_psi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.num_features <= 0:
            raise ValueError(
                f"num_features must be > 0, got {self.num_features}"
            )
        if self.sampler not in SAMPLER_KINDS:
            raise ValueError(
                f"sampler must be one of {sorted(SAMPLER_KINDS)}, "
                f"got {self.sampler!r}"
            )
        for row in self.constraint_rows:
            if len(row) != self.num_features:
                raise ValueError(
                    f"constraint row has {len(row)} entries, "
                    f"expected {self.num_features}"
                )

    @classmethod
    def for_fill(
        cls,
        key: str,
        constraints: ConstraintSet,
        count: int,
        *,
        sampler: str,
        seed_root: int,
        noise_psi: Optional[float] = None,
    ) -> "FillSpec":
        """Build a spec from a live constraint set, deriving the seed."""
        return cls(
            key=key,
            count=int(count),
            num_features=constraints.num_features,
            constraint_rows=_nested_tuple(
                np.atleast_2d(constraints.directions)
            )
            if len(constraints)
            else (),
            sampler=sampler,
            seed=derive_fill_seed(seed_root, key),
            noise_psi=noise_psi,
        )

    def constraint_set(self) -> ConstraintSet:
        """The live :class:`ConstraintSet` the rows describe."""
        if not self.constraint_rows:
            return ConstraintSet.empty(self.num_features)
        return ConstraintSet(np.asarray(self.constraint_rows, dtype=float))


# ================================================================= resolution
#: ``builder(spec, prior, rng) -> Sampler`` — how each sampler kind resolves.
SamplerBuilder = Callable[[FillSpec, GaussianMixture, np.random.Generator], Sampler]


def _build_batch(spec, prior, rng):
    from repro.sampling.batch import BatchRejectionSampler

    return BatchRejectionSampler(
        prior, rng=rng, noise_probability=spec.noise_psi
    )


def _build_rejection(spec, prior, rng):
    from repro.sampling.rejection import RejectionSampler

    return RejectionSampler(prior, rng=rng, noise_probability=spec.noise_psi)


def _build_importance(spec, prior, rng):
    from repro.sampling.importance import ImportanceSampler

    return ImportanceSampler(prior, rng=rng, noise_probability=spec.noise_psi)


def _build_mcmc(spec, prior, rng):
    from repro.sampling.mcmc import MetropolisHastingsSampler

    return MetropolisHastingsSampler(
        prior, rng=rng, noise_probability=spec.noise_psi
    )


_SAMPLER_BUILDERS: Dict[str, SamplerBuilder] = {
    "batch": _build_batch,
    "rejection": _build_rejection,
    "importance": _build_importance,
    "mcmc": _build_mcmc,
}


def build_sampler(spec: FillSpec, prior: GaussianMixture) -> Sampler:
    """Resolve a spec into a ready sampler over ``prior`` (seeded RNG)."""
    rng = np.random.default_rng(spec.seed)
    return _SAMPLER_BUILDERS[spec.sampler](spec, prior, rng)


def execute_fill(spec: FillSpec, prior: GaussianMixture) -> SamplePool:
    """Run one fill described by ``spec`` over ``prior`` and return its pool."""
    started = time.perf_counter()
    pool = build_sampler(spec, prior).sample(spec.count, spec.constraint_set())
    pool.stats["fill_seconds"] = time.perf_counter() - started
    return pool

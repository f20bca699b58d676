"""Serializable pool-fill specifications: the process-parallel fill seam.

A closure over the live engine (its prior, its config, its seed root) could
describe a pool fill, but closures execute anywhere in-process — and nowhere
else.  A fill that should run in a worker *process* (or on another host)
needs the transposed representation: a plain-data description of the fill
that can be pickled, shipped, and resolved into a sampler on the far side.
This module is that representation:

* :class:`FillSpec` — a frozen dataclass that fully describes one pool fill
  with no live objects: the pool key, the constraint rows, the sample count,
  the sampler kind and its parameters, the *derived* RNG seed (engine seed +
  pool key, already folded engine-side so the worker needs no engine state),
  and a digest reference into the shared fill context.
* :class:`FillContext` / :class:`PriorSpec` — the heavy shared state a fill
  needs (today: the Gaussian-mixture prior's parameter arrays) as plain
  data, content-addressed by digest.  A process backend ships the context
  **once per worker** via its pool initializer; workers cache it by digest in
  a module-level registry, so every subsequent spec is just a few hundred
  bytes.
* :func:`build_sampler` / :func:`execute_fill` — module-level resolution:
  ``build_sampler(spec)`` constructs the sampler (kind + parameters + seeded
  RNG) from the spec alone, looking the context up by digest;
  ``execute_fill(spec)`` runs the fill and returns the
  :class:`~repro.sampling.base.SamplePool`.  Because both are module-level
  functions of pure data, the *same* spec resolves identically inline or in
  a worker process — which is what keeps process-sharded
  engines bit-identical to unsharded ones.
* :func:`derive_fill_seed` — the key-deterministic seed derivation
  (blake2b over ``pool-fill:<seed root>:<key>``), the one formula every
  fill's RNG seed comes from.

Determinism contract: a fill's output is a function of ``(spec, context)``
and nothing else.  The spec carries the derived seed, the context carries
exact float64 prior parameters (tuples round-trip binary-identically), and
the sampler builders below construct the sampler from those alone — so
where a fill runs can never change what it returns.
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
    "FillContext",
    "FillSpec",
    "PriorSpec",
    "SAMPLER_KINDS",
    "build_sampler",
    "derive_fill_seed",
    "execute_fill",
    "get_fill_context",
    "known_fill_contexts",
    "register_fill_context",
    "register_sampler_builder",
]

#: Sampler kinds a :class:`FillSpec` may name out of the box.  ``"batch"`` is
#: the engine default (vectorised block rejection with per-set MCMC fallback);
#: the other three are the paper's per-session samplers.
SAMPLER_KINDS = ("batch", "rejection", "importance", "mcmc")


def derive_fill_seed(seed_root: int, key: str) -> int:
    """The key-deterministic fill seed: blake2b over the root and the key.

    This is the serving stack's determinism contract in one function: the
    sampler RNG for pool ``key`` depends only on the engine's seed root and
    the key itself, so any worker anywhere — same process, a spawned
    worker, another host — refills the pool bit-identically.
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


# ================================================================== contexts
@dataclass(frozen=True)
class PriorSpec:
    """The Gaussian-mixture prior ``Pw`` as plain data (no live objects).

    Stores the mixture's parameter arrays as nested tuples of Python floats —
    float64 round-trips through Python floats exactly, so the rebuilt mixture
    is binary-identical to the live one it was captured from.
    """

    means: Tuple[Tuple[float, ...], ...]
    covariances: Tuple[Tuple[Tuple[float, ...], ...], ...]
    weights: Tuple[float, ...]

    @classmethod
    def from_mixture(cls, mixture: GaussianMixture) -> "PriorSpec":
        """Capture a live mixture's parameters."""
        return cls(
            means=_nested_tuple(mixture.means),
            covariances=_nested_tuple(mixture.covariances),
            weights=_nested_tuple(mixture.weights),
        )

    def build(self) -> GaussianMixture:
        """Reconstruct the mixture (bit-identical parameters)."""
        return GaussianMixture(
            np.asarray(self.means, dtype=float),
            np.asarray(self.covariances, dtype=float),
            np.asarray(self.weights, dtype=float),
        )


@dataclass(frozen=True)
class FillContext:
    """The shared state every fill under one engine needs, as plain data.

    The prior rides as an inline payload; a catalog rides as a *reference* —
    ``catalog_digest`` names the content, ``catalog_path`` says where the
    columnar store lives on this host — so shipping a context to a worker
    costs a few hundred bytes however large the catalog is: the worker mmaps
    the store locally instead of receiving feature arrays over a pipe.
    Contexts are content-addressed: the digest is a hash of the payload (the
    catalog contributes its *content* digest, not its path), so a worker
    that already holds a context with the same digest skips re-registration
    no matter which engine shipped it.
    """

    prior: PriorSpec
    catalog_path: Optional[str] = None
    catalog_digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """Content digest used as the registry key (stable across processes)."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(repr(self.prior.means).encode())
        hasher.update(repr(self.prior.covariances).encode())
        hasher.update(repr(self.prior.weights).encode())
        if self.catalog_digest is not None:
            hasher.update(f"catalog:{self.catalog_digest}".encode())
        return hasher.hexdigest()


#: Process-local context registry: digest -> context.  The engine registers
#: its context at construction (covering inline fills); a process
#: backend's worker initializer registers it worker-side.
_CONTEXTS: Dict[str, FillContext] = {}

#: Built mixtures cached per context digest.  A mixture factorises its
#: covariances when it is built, so the fills of one context do that once.
_MIXTURES: Dict[str, GaussianMixture] = {}


def register_fill_context(context: FillContext) -> str:
    """Register a context in this process's registry; returns its digest.

    Idempotent by content: registering the same payload twice (two engines
    over one prior, or a worker receiving a context it already holds) is a
    no-op beyond the digest lookup.
    """
    digest = context.digest
    _CONTEXTS.setdefault(digest, context)
    if context.catalog_digest is not None and context.catalog_path is not None:
        # Record where the referenced columnar store lives so this process
        # (engine or pool-fill worker — the process backend's
        # initializer funnels through here) can mmap it on demand by digest.
        from repro.data.columnar import register_catalog_location

        register_catalog_location(context.catalog_digest, context.catalog_path)
    return digest


def get_fill_context(digest: str) -> FillContext:
    """The registered context for ``digest``; raises ``KeyError`` if unknown."""
    try:
        return _CONTEXTS[digest]
    except KeyError:
        raise KeyError(
            f"no FillContext registered under digest {digest!r} in this "
            f"process — the engine registers its context at construction, "
            f"and a process backend must ship it via its worker initializer"
        ) from None


def known_fill_contexts() -> Dict[str, FillContext]:
    """A snapshot of every context registered in this process."""
    return dict(_CONTEXTS)


def _mixture_for(digest: str) -> GaussianMixture:
    mixture = _MIXTURES.get(digest)
    if mixture is None:
        mixture = get_fill_context(digest).prior.build()
        _MIXTURES[digest] = mixture
    return mixture


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
        One of :data:`SAMPLER_KINDS` (or a kind added via
        :func:`register_sampler_builder`).
    seed:
        The fully *derived* RNG seed (:func:`derive_fill_seed` applied
        engine-side), so resolving the spec needs no engine state.
    context_digest:
        Digest of the :class:`FillContext` (prior) the fill samples from.
    noise_psi:
        The §7 feedback-noise parameter, or ``None`` for hard constraints.
    """

    key: str
    count: int
    num_features: int
    constraint_rows: Tuple[Tuple[float, ...], ...]
    sampler: str
    seed: int
    context_digest: str
    noise_psi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.num_features <= 0:
            raise ValueError(
                f"num_features must be > 0, got {self.num_features}"
            )
        if self.sampler not in _SAMPLER_BUILDERS:
            raise ValueError(
                f"sampler must be one of {sorted(_SAMPLER_BUILDERS)}, "
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
        context_digest: str,
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
            context_digest=context_digest,
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


def register_sampler_builder(kind: str, builder: SamplerBuilder) -> None:
    """Register (or override) how a sampler kind resolves from a spec.

    The extension point custom deployments and tests hook: a registered kind
    becomes a valid ``FillSpec.sampler`` value in this process.  With a
    fork-started process backend, kinds registered *before* the worker pool
    spawns are inherited by the workers.
    """
    if not kind:
        raise ValueError("sampler kind must be a non-empty string")
    _SAMPLER_BUILDERS[kind] = builder


def build_sampler(
    spec: FillSpec, context: Optional[FillContext] = None
) -> Sampler:
    """Resolve a spec into a ready sampler (seeded RNG, rebuilt prior).

    ``context`` defaults to the registry entry under ``spec.context_digest``
    — the module-level resolution a shard (or a worker process) performs
    with no engine in sight.
    """
    if context is not None:
        register_fill_context(context)
    prior = _mixture_for(spec.context_digest)
    rng = np.random.default_rng(spec.seed)
    return _SAMPLER_BUILDERS[spec.sampler](spec, prior, rng)


def execute_fill(
    spec: FillSpec, context: Optional[FillContext] = None
) -> SamplePool:
    """Run one fill described by ``spec`` and return its pool.

    When the context references a catalog by digest, the referenced columnar
    store is opened (mmap, cached per process) and stamped into the pool's
    ``stats`` — proof, visible engine-side, that the fill ran against the
    content-addressed catalog rather than a shipped array copy.  Stats never
    influence sampling, so fills stay bit-identical across backings.
    """
    started = time.perf_counter()
    sampler = build_sampler(spec, context)
    pool = sampler.sample(spec.count, spec.constraint_set())
    pool.stats["fill_seconds"] = time.perf_counter() - started
    if context is None:
        context = _CONTEXTS.get(spec.context_digest)
    if context is not None and context.catalog_digest is not None:
        from repro.data.columnar import open_catalog_by_digest

        opened = open_catalog_by_digest(context.catalog_digest)
        pool.stats["catalog_digest"] = context.catalog_digest
        pool.stats["catalog_items"] = opened.num_items
    return pool

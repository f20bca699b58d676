"""Shared abstractions for constrained weight-vector sampling.

* :class:`ConstraintSet` — the half-space constraints induced by feedback
  (``w`` valid iff ``w · d >= 0`` for every direction ``d``), with optional
  noise-aware soft rejection (§7).
* :func:`chebyshev_centre` — the NumPy simplex behind
  :meth:`ConstraintSet.interior_point`, the seed of a chain that rejection
  cannot start.
* :class:`SamplePool` — a weighted pool of accepted weight vectors, the output
  of every sampler and the input to the ranking-semantics aggregation (§4).
* :class:`Sampler` — the abstract base class all three samplers implement.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.preferences import Preference, PreferenceStore
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_matrix, require_vector

#: Decimal digits :meth:`ConstraintSet.fingerprint` rounds directions to.
#: Anything that must agree with fingerprint equality (the adaptation
#: layer's similarity index) rounds with this same constant.
FINGERPRINT_PRECISION = 10

#: Tolerances of :func:`chebyshev_centre`'s simplex.  After every pivot,
#: tableau entries below ``SIMPLEX_ZERO_TOL`` are set to zero, so a
#: degenerate row's right-hand side stays exactly zero instead of drifting
#: into ±1e-10 over a long run of degenerate pivots.  A column entry at or
#: below ``SIMPLEX_PIVOT_TOL`` is never a pivot, and ratios within
#: ``SIMPLEX_RATIO_TOL`` of the minimum tie (broken by Bland's rule).
SIMPLEX_ZERO_TOL = 1e-11
SIMPLEX_PIVOT_TOL = 1e-9
SIMPLEX_RATIO_TOL = 1e-12
#: The simplex gives up after this many pivots per tableau row.
SIMPLEX_PIVOTS_PER_ROW = 50


class SimplexError(RuntimeError):
    """The Chebyshev simplex hit its pivot cap or lost every pivot row."""


def chebyshev_centre(unit_directions: np.ndarray) -> Tuple[np.ndarray, float]:
    """The Chebyshev centre ``(w, t)`` of a cone cut to the box ``[-1, 1]^m``.

    Maximises ``t`` subject to ``d̂_i · w >= t`` for every unit row ``d̂_i``,
    ``|w_j| <= 1`` and ``0 <= t <= 1``, by a dense simplex.  With
    ``w = w⁺ - w⁻`` and ``w⁺, w⁻ <= 1`` every variable is non-negative and
    every right-hand side is too, so the all-slack basis (the origin) is
    feasible and no phase 1 is needed.  The origin is degenerate in every
    cone row; Bland's rule (the lowest-numbered improving variable enters,
    the lowest-numbered basic variable among ratio ties leaves) keeps the
    simplex from cycling there.  Raises :class:`SimplexError` instead of
    returning a guess.

    The tableau is condensed: one column per non-basic variable, so a pivot
    swaps a row's and a column's variable instead of carrying the slacks'
    identity block.  Row ``i`` reads ``x[basis[i]] + Σ_j T[i, j] ·
    x[nonbasic[j]] = T[i, -1]``, and the last row holds the reduced costs.
    """
    cone_rows, m = unit_directions.shape
    columns = 2 * m + 1
    rows = cone_rows + columns
    tableau = np.zeros((rows + 1, columns + 1))
    tableau[:cone_rows, :m] = -unit_directions
    tableau[:cone_rows, m : 2 * m] = unit_directions
    tableau[:cone_rows, 2 * m] = 1.0
    tableau[cone_rows:rows, :columns] = np.eye(columns)  # w⁺, w⁻, t <= 1
    tableau[cone_rows:rows, -1] = 1.0
    tableau[-1, 2 * m] = -1.0  # reduced costs of maximising t
    # Variables are numbered slacks first, then (w⁺, w⁻, t): Bland's rule
    # then takes about 40% fewer pivots than with the slacks last.
    basis = np.arange(rows)
    nonbasic = np.arange(rows, rows + columns)
    max_pivots = SIMPLEX_PIVOTS_PER_ROW * rows
    for _ in range(max_pivots):
        improving = np.flatnonzero(tableau[-1, :-1] < 0.0)
        if improving.size == 0:
            break
        entering = improving[np.argmin(nonbasic[improving])]
        column = tableau[:rows, entering]
        eligible = np.flatnonzero(column > SIMPLEX_PIVOT_TOL)
        if eligible.size == 0:
            raise SimplexError("no pivot row in a bounded program: numerical breakdown")
        # Rounding can leave a degenerate row's right-hand side at -1e-17.
        ratios = np.maximum(tableau[eligible, -1], 0.0) / column[eligible]
        ties = eligible[ratios <= ratios.min() + SIMPLEX_RATIO_TOL]
        leaving = ties[np.argmin(basis[ties])]
        pivot = tableau[leaving, entering]
        pivot_row = tableau[leaving] / pivot
        pivot_column = tableau[:, entering].copy()
        tableau -= pivot_column[:, None] * pivot_row
        tableau[leaving] = pivot_row
        tableau[:, entering] = -pivot_column / pivot
        tableau[leaving, entering] = 1.0 / pivot
        tableau[np.abs(tableau) < SIMPLEX_ZERO_TOL] = 0.0
        basis[leaving], nonbasic[entering] = nonbasic[entering], basis[leaving]
    else:
        raise SimplexError(f"no optimum after {max_pivots} pivots")
    solution = np.zeros(rows + columns)
    solution[basis] = tableau[:rows, -1]
    structural = solution[rows:]
    return structural[:m] - structural[m : 2 * m], float(structural[2 * m])


class ConstraintSet:
    """Half-space constraints on weight vectors derived from feedback.

    A weight vector ``w`` is *valid* when ``w · d >= 0`` for every stored
    direction ``d`` (where ``d = p_preferred - p_other``).  The direction
    matrix is read-only (a writable input is copied first), which is what
    lets :meth:`fingerprint` be computed once per instance.

    Parameters
    ----------
    directions:
        ``(c, m)`` matrix of half-space normals (may be empty).
    num_features:
        Required when ``directions`` is empty, to fix the dimensionality.
    """

    __slots__ = ("_directions", "num_features", "_fingerprint")

    def __init__(
        self,
        directions: Optional[np.ndarray] = None,
        num_features: Optional[int] = None,
    ) -> None:
        if directions is None or np.size(directions) == 0:
            if num_features is None:
                raise ValueError(
                    "num_features is required when no directions are given"
                )
            directions = np.zeros((0, int(num_features)))
        else:
            directions = require_matrix(directions, "directions")
            if directions.flags.writeable:
                directions = directions.copy()
        directions.flags.writeable = False
        self._directions = directions
        self.num_features = directions.shape[1]
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_preferences(
        cls, preferences: Iterable[Preference], num_features: Optional[int] = None
    ) -> "ConstraintSet":
        """Build a constraint set from preference objects."""
        directions = [p.direction for p in preferences]
        if not directions:
            return cls(None, num_features=num_features)
        return cls(np.stack(directions))

    @classmethod
    def from_store(cls, store: PreferenceStore, reduced: bool = True) -> "ConstraintSet":
        """Build a constraint set from a :class:`PreferenceStore`.

        ``reduced=True`` applies the transitive-reduction optimisation of §3.3
        so redundant constraints are not checked during sampling.
        """
        return cls(store.directions(reduced=reduced), num_features=store.num_features)

    @classmethod
    def empty(cls, num_features: int) -> "ConstraintSet":
        """A constraint set with no constraints (every weight vector is valid)."""
        return cls(None, num_features=num_features)

    # ------------------------------------------------------------------ basics
    @property
    def directions(self) -> np.ndarray:
        """The ``(c, m)`` matrix of half-space normals."""
        return self._directions

    def __len__(self) -> int:
        return self._directions.shape[0]

    def is_empty(self) -> bool:
        """Whether there are no constraints."""
        return len(self) == 0

    # ---------------------------------------------------------------- checking
    def is_valid(self, weights: np.ndarray) -> bool:
        """Whether a single weight vector satisfies every constraint."""
        if self.is_empty():
            return True
        weights = require_vector(weights, "weights", length=self.num_features)
        return bool(np.all(self._directions @ weights >= 0.0))

    def violations(self, weights: np.ndarray) -> int:
        """Number of constraints violated by a single weight vector."""
        if self.is_empty():
            return 0
        weights = require_vector(weights, "weights", length=self.num_features)
        return int(np.sum(self._directions @ weights < 0.0))

    def valid_mask(self, samples: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of ``samples`` marking fully-valid vectors."""
        samples = require_matrix(samples, "samples", columns=self.num_features)
        if self.is_empty():
            return np.ones(samples.shape[0], dtype=bool)
        return np.all(samples @ self._directions.T >= 0.0, axis=1)

    def violation_counts(self, samples: np.ndarray) -> np.ndarray:
        """Per-row count of violated constraints for a stack of samples."""
        samples = require_matrix(samples, "samples", columns=self.num_features)
        if self.is_empty():
            return np.zeros(samples.shape[0], dtype=int)
        return np.sum(samples @ self._directions.T < 0.0, axis=1).astype(int)

    # ----------------------------------------------------------- interior point
    def interior_point(self) -> Optional[np.ndarray]:
        """A strictly interior valid weight vector, or ``None`` if none exists.

        Solves the Chebyshev-centre linear program of the constraint cone
        within the box ``[-1, 1]^m`` (:func:`chebyshev_centre`).  A positive
        optimum yields a point with slack against every constraint — the robust way to seed an MCMC chain when
        the valid region's prior mass is too small for rejection sampling to
        hit (high dimensionality, many accumulated preferences).
        """
        directions = self._directions
        norms = np.linalg.norm(directions, axis=1)
        nonzero = norms > 0
        if not nonzero.any():
            return np.zeros(self.num_features)
        point, slack = chebyshev_centre(directions[nonzero] / norms[nonzero, None])
        if slack <= 0 or not self.is_valid(point):
            return None
        return point

    # ------------------------------------------------------------- fingerprint
    def fingerprint(self) -> str:
        """A canonical content fingerprint of the constraint set.

        Two constraint sets that contain the same half-space directions — in
        any order, up to :data:`FINGERPRINT_PRECISION` decimal digits —
        produce the same fingerprint.  The serving layer uses this as the key
        of the shared sample-pool cache: sessions whose feedback prefixes
        induce identical constraint sets map to the same key and can share
        one pool of posterior samples.  The result is memoized.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            rounded = np.round(self._directions, FINGERPRINT_PRECISION)
            rounded += 0.0  # normalise -0.0 to +0.0 so signs cannot split keys
            rows = sorted(map(tuple, rounded.tolist()))
            content = f"m={self.num_features};c={len(rows)};" + "".join(map(repr, rows))
            digest = hashlib.blake2b(content.encode(), digest_size=16)
            fingerprint = self._fingerprint = digest.hexdigest()
        return fingerprint

    # --------------------------------------------------------------- extension
    def extended(self, new_directions: np.ndarray) -> "ConstraintSet":
        """A new constraint set with additional directions appended."""
        new_directions = np.atleast_2d(np.asarray(new_directions, dtype=float))
        if new_directions.shape[1] != self.num_features:
            raise ValueError(
                f"new directions have {new_directions.shape[1]} features, "
                f"expected {self.num_features}"
            )
        return ConstraintSet(np.vstack([self._directions, new_directions]))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ConstraintSet(num_constraints={len(self)}, "
            f"num_features={self.num_features})"
        )


@dataclass
class SamplePool:
    """A weighted pool of accepted weight-vector samples.

    Attributes
    ----------
    samples:
        ``(N, m)`` matrix of weight vectors, all valid w.r.t. the constraints
        in force when they were generated.
    weights:
        ``(N,)`` importance weights (all ones for rejection and MCMC sampling).
    stats:
        Free-form sampler statistics (attempts, acceptance rate, timings, ...).
    """

    samples: np.ndarray
    weights: np.ndarray
    stats: dict = field(default_factory=dict)
    #: ``(samples, weights, digest)`` once :meth:`content_digest` has hashed
    #: read-only arrays.
    _digest_memo: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.size == 0:
            self.samples = self.samples.reshape(0, self.samples.shape[-1] if self.samples.ndim > 1 else 0)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.weights.shape[0] != self.samples.shape[0]:
            raise ValueError(
                f"weights length {self.weights.shape[0]} does not match "
                f"{self.samples.shape[0]} samples"
            )
        if (self.weights < 0).any():
            raise ValueError("importance weights must be non-negative")

    # ------------------------------------------------------------------ basics
    @property
    def size(self) -> int:
        """Number of samples in the pool."""
        return self.samples.shape[0]

    @property
    def num_features(self) -> int:
        """Dimensionality of the samples."""
        return self.samples.shape[1] if self.samples.ndim == 2 else 0

    def __len__(self) -> int:
        return self.size

    @classmethod
    def empty(cls, num_features: int) -> "SamplePool":
        """An empty pool of the given dimensionality."""
        return cls(np.zeros((0, num_features)), np.zeros(0))

    @classmethod
    def unweighted(cls, samples: np.ndarray, stats: Optional[dict] = None) -> "SamplePool":
        """A pool where every sample carries weight 1."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return cls(samples, np.ones(samples.shape[0]), stats or {})

    # -------------------------------------------------------------- operations
    def normalised_weights(self) -> np.ndarray:
        """Importance weights normalised to sum to 1 (uniform if all zero)."""
        total = self.weights.sum()
        if total <= 0:
            if self.size == 0:
                return self.weights
            return np.full(self.size, 1.0 / self.size)
        return self.weights / total

    def content_digest(self) -> str:
        """Content hash (blake2b, 128 bits) of the samples and the weights.

        Memoized once both arrays are read-only, as the serving engine makes
        every pool it stamps: nothing can write them then, so the pool is
        hashed once however often it is checkpointed or restored.
        """
        frozen = not (self.samples.flags.writeable or self.weights.flags.writeable)
        memo = self._digest_memo
        if frozen and memo is not None and memo[0] is self.samples and memo[1] is self.weights:
            return memo[2]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(self.samples).tobytes())
        digest.update(np.ascontiguousarray(self.weights).tobytes())
        value = digest.hexdigest()
        if frozen:
            self._digest_memo = (self.samples, self.weights, value)
        return value

    def copy(self) -> "SamplePool":
        """An independent deep copy of the pool (samples, weights and stats)."""
        return SamplePool(self.samples.copy(), self.weights.copy(), dict(self.stats))

    def subset(self, mask_or_indices) -> "SamplePool":
        """A new pool restricted to the given boolean mask or index array."""
        return SamplePool(
            self.samples[mask_or_indices],
            self.weights[mask_or_indices],
            dict(self.stats),
        )

    def concatenate(self, other: "SamplePool") -> "SamplePool":
        """A new pool containing the samples of both pools."""
        if other.size == 0:
            return SamplePool(self.samples.copy(), self.weights.copy(), dict(self.stats))
        if self.size == 0:
            return SamplePool(other.samples.copy(), other.weights.copy(), dict(other.stats))
        return SamplePool(
            np.vstack([self.samples, other.samples]),
            np.concatenate([self.weights, other.weights]),
            dict(self.stats),
        )

    def mean_weight_vector(self) -> np.ndarray:
        """Importance-weighted mean of the pooled weight vectors."""
        if self.size == 0:
            raise ValueError("cannot take the mean of an empty sample pool")
        return np.average(self.samples, axis=0, weights=self.normalised_weights())

    def effective_sample_size(self) -> float:
        """Kish effective sample size ``(Σq)² / Σq²`` of the pool."""
        if self.size == 0:
            return 0.0
        total = self.weights.sum()
        if total <= 0:
            return float(self.size)
        return float(total**2 / np.square(self.weights).sum())


class Sampler(abc.ABC):
    """Abstract base class for constrained weight-vector samplers.

    Parameters
    ----------
    prior:
        The Gaussian-mixture prior ``Pw`` over weight vectors.
    rng:
        Seed or generator used for all randomness in the sampler.
    noise_probability:
        Optional feedback-noise parameter ψ from §7: the probability that any
        single feedback preference is correct.  ``None`` (default) assumes
        noise-free feedback, i.e. hard constraints.
    """

    #: Human-readable name used in experiment reports ("RS", "IS", "MS").
    short_name: str = "base"

    def __init__(
        self,
        prior: GaussianMixture,
        rng: RngLike = None,
        noise_probability: Optional[float] = None,
    ) -> None:
        self.prior = prior
        self.rng = ensure_rng(rng)
        if noise_probability is not None and not 0.0 <= noise_probability <= 1.0:
            raise ValueError(
                f"noise_probability must be in [0, 1], got {noise_probability}"
            )
        self.noise_probability = noise_probability

    @property
    def num_features(self) -> int:
        """Dimensionality of the weight space."""
        return self.prior.dimension

    @abc.abstractmethod
    def sample(self, count: int, constraints: ConstraintSet) -> SamplePool:
        """Draw ``count`` valid weight vectors under ``constraints``."""

    # ------------------------------------------------------------ noise model
    def _rejects_under_noise(self, num_violations: int) -> bool:
        """Whether a sample violating ``num_violations`` constraints is rejected.

        With the §7 noise model each feedback is independently correct with
        probability ψ; a sample is rejected with the probability that at least
        one of the constraints it violates is correct, ``1 - (1 - ψ)^x``.
        Without a noise model any violation causes rejection.
        """
        if num_violations <= 0:
            return False
        if self.noise_probability is None:
            return True
        reject_probability = 1.0 - (1.0 - self.noise_probability) ** num_violations
        return bool(self.rng.random() < reject_probability)

    def _accepts(self, weights: np.ndarray, constraints: ConstraintSet) -> bool:
        """Constraint/noise-aware acceptance test for a candidate sample."""
        if self.noise_probability is None:
            return constraints.is_valid(weights)
        return not self._rejects_under_noise(constraints.violations(weights))

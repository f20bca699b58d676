"""Gaussian mixture model over weight vectors (the prior ``Pw``).

The paper assumes the prior over the utility weight vector is a mixture of
Gaussians, since a mixture can approximate any density (§2.1, citing Bishop).
This module is a small, self-contained mixture implementation (density,
log-density, sampling, component responsibilities) — the substrate the
samplers in this package build on.

Everything here is NumPy.  The densities use the closed form SciPy's
``multivariate_normal`` evaluates — a whitening matrix and a log determinant
from one symmetric eigendecomposition per component — so they match SciPy's
bit for bit on every prior the library builds (isotropic components), and a
serving process never loads ``scipy.stats`` (about 60 MB of RSS).  A general
covariance agrees with SciPy to rounding: the two libraries call different
LAPACK eigensolvers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_matrix, require_vector

#: ``log(2π)``, computed as SciPy computes it.
_LOG_2PI = np.log(2 * np.pi)


class GaussianMixture:
    """A mixture of multivariate Gaussians over ``R^m``.

    Parameters
    ----------
    means:
        ``(K, m)`` matrix of component means.
    covariances:
        ``(K, m, m)`` array of component covariance matrices, or ``(K, m)``
        diagonal entries, or a scalar used as isotropic variance for all
        components.
    weights:
        ``(K,)`` mixture weights; default uniform.  Normalised automatically.
    """

    def __init__(
        self,
        means: np.ndarray,
        covariances,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        means = require_matrix(means, "means")
        self.means = means
        num_components, dimension = means.shape
        self.covariances = self._normalise_covariances(covariances, num_components, dimension)
        if weights is None:
            weights = np.full(num_components, 1.0 / num_components)
        weights = require_vector(weights, "weights", length=num_components)
        if (weights < 0).any():
            raise ValueError("mixture weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("mixture weights must not all be zero")
        self.weights = weights / total
        self._whitening, self._log_normalisers = self._factorise(self.covariances)

    @staticmethod
    def _normalise_covariances(covariances, num_components: int, dimension: int) -> np.ndarray:
        if np.isscalar(covariances):
            value = float(covariances)
            if value <= 0:
                raise ValueError(f"isotropic variance must be > 0, got {value}")
            return np.stack([np.eye(dimension) * value for _ in range(num_components)])
        array = np.asarray(covariances, dtype=float)
        if array.ndim == 2 and array.shape == (num_components, dimension):
            if (array <= 0).any():
                raise ValueError("diagonal variances must be > 0")
            return np.stack([np.diag(array[k]) for k in range(num_components)])
        if array.ndim == 3 and array.shape == (num_components, dimension, dimension):
            return array
        raise ValueError(
            f"covariances must be a scalar, a ({num_components}, {dimension}) diagonal "
            f"array, or a ({num_components}, {dimension}, {dimension}) array; "
            f"got shape {np.shape(covariances)}"
        )

    @staticmethod
    def _factorise(covariances: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Whitening matrices and log normalisers, rejecting a bad covariance.

        One ``eigh`` per component serves both.  The check is the one
        ``multivariate_normal(..., allow_singular=False)`` applies: eigenvalues
        of the lower triangle, with any eigenvalue at or below
        ``1e6 * eps * max|eigenvalue|`` counted as zero.  It runs here so a
        bad prior fails at construction, not at its first density.  The
        whitening matrix is ``U = V · diag(1/√λ)``, so ``‖(x − μ) U‖²`` is the
        Mahalanobis distance, and the normaliser is ``m·log 2π + Σ log λ``.
        """
        if not np.isfinite(covariances).all():
            raise ValueError("covariances must not contain infs or NaNs")
        spectra, bases = np.linalg.eigh(covariances)
        tolerances = 1e6 * np.finfo(float).eps * np.abs(spectra).max(axis=1)
        # An indefinite spectrum also has an eigenvalue under its tolerance,
        # so the first flagged component is the first bad one.
        for k in np.flatnonzero((spectra <= tolerances[:, None]).any(axis=1)):
            if spectra[k].min() < -tolerances[k]:
                raise ValueError(
                    f"covariance {k} is not symmetric positive semidefinite"
                )
            raise np.linalg.LinAlgError(
                f"covariance {k} is singular; it must be symmetric "
                f"positive definite"
            )
        whitening = bases * np.sqrt(1.0 / spectra)[:, None, :]
        log_normalisers = covariances.shape[-1] * _LOG_2PI + np.log(spectra).sum(axis=1)
        return whitening, log_normalisers

    # ------------------------------------------------------------------ basics
    @property
    def num_components(self) -> int:
        """Number of mixture components ``K``."""
        return self.means.shape[0]

    @property
    def dimension(self) -> int:
        """Dimensionality ``m`` of the weight space."""
        return self.means.shape[1]

    # ----------------------------------------------------------------- density
    def _component_logpdfs(self, matrix: np.ndarray):
        """Each component's log-density at the rows of ``matrix``, in order.

        ``−½ (m·log 2π + log det Σ + ‖(x − μ) U‖²)``, with the operations in
        the order SciPy's ``multivariate_normal.logpdf`` performs them.
        """
        for mean, whitening, normaliser in zip(
            self.means, self._whitening, self._log_normalisers
        ):
            maha = np.sum(np.square((matrix - mean) @ whitening), axis=-1)
            yield -0.5 * (normaliser + maha)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        """Mixture density at one point (scalar) or a stack of points (vector)."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        matrix = points[None, :] if single else points
        density = np.zeros(matrix.shape[0])
        for weight, log_density in zip(self.weights, self._component_logpdfs(matrix)):
            density += weight * np.exp(log_density)
        return float(density[0]) if single else density

    def logpdf(self, points: np.ndarray) -> np.ndarray:
        """Log of the mixture density (numerically via log-sum-exp)."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        matrix = points[None, :] if single else points
        log_terms = np.stack(
            [
                np.log(weight) + log_density
                for weight, log_density in zip(
                    self.weights, self._component_logpdfs(matrix)
                )
                if weight > 0
            ]
        )
        max_term = log_terms.max(axis=0)
        log_density = max_term + np.log(np.exp(log_terms - max_term).sum(axis=0))
        return float(log_density[0]) if single else log_density

    def responsibilities(self, points: np.ndarray) -> np.ndarray:
        """Posterior component probabilities for each point (``(n, K)``)."""
        matrix = require_matrix(points, "points", columns=self.dimension)
        terms = np.stack(
            [
                weight * np.exp(log_density)
                for weight, log_density in zip(
                    self.weights, self._component_logpdfs(matrix)
                )
            ],
            axis=1,
        )
        totals = terms.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return terms / totals

    # ---------------------------------------------------------------- sampling
    def sample(self, count: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``count`` points from the mixture."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        generator = ensure_rng(rng)
        if count == 0:
            return np.zeros((0, self.dimension))
        assignments = generator.choice(self.num_components, size=count, p=self.weights)
        samples = np.zeros((count, self.dimension))
        for k in range(self.num_components):
            mask = assignments == k
            how_many = int(mask.sum())
            if how_many == 0:
                continue
            samples[mask] = generator.multivariate_normal(
                self.means[k], self.covariances[k], size=how_many
            )
        return samples

    # ------------------------------------------------------------ constructors
    @classmethod
    def default_prior(
        cls,
        num_features: int,
        num_components: int = 1,
        spread: float = 0.5,
        rng: RngLike = None,
    ) -> "GaussianMixture":
        """The system-default prior over weight vectors.

        A single-component prior is centred at the origin of ``[-1, 1]^m``
        (no initial bias toward any feature); multi-component priors place the
        extra components at random offsets, modelling a population of user
        "types" as in the paper's experiments that vary the number of
        Gaussians (Figure 5c).
        """
        if num_features <= 0:
            raise ValueError(f"num_features must be > 0, got {num_features}")
        if num_components <= 0:
            raise ValueError(f"num_components must be > 0, got {num_components}")
        if spread <= 0:
            raise ValueError(f"spread must be > 0, got {spread}")
        generator = ensure_rng(rng)
        means = np.zeros((num_components, num_features))
        if num_components > 1:
            means[1:] = generator.uniform(-0.5, 0.5, size=(num_components - 1, num_features))
        covariances = np.stack(
            [np.eye(num_features) * spread**2 for _ in range(num_components)]
        )
        return cls(means, covariances)

    @classmethod
    def isotropic(
        cls, mean: np.ndarray, variance: float
    ) -> "GaussianMixture":
        """A single isotropic Gaussian as a (degenerate) mixture."""
        mean = require_vector(mean, "mean")
        return cls(mean[None, :], variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GaussianMixture(num_components={self.num_components}, "
            f"dimension={self.dimension})"
        )

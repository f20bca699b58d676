"""Packages (sets of items) and their aggregate feature vectors.

A package is a non-empty set of items of size at most φ (the system-defined
maximum package size).  Its feature vector w.r.t. a profile ``V`` is the
per-feature aggregate of the member items' values, normalised into ``[0, 1]``
by the maximum achievable aggregate value (paper §2, Example 1).

:class:`PackageEvaluator` binds an :class:`~repro.core.items.ItemCatalog`, an
:class:`~repro.core.profiles.AggregateProfile` and φ together and provides:

* package → normalised feature vector / utility evaluation, memoized per
  evaluator so a package is aggregated once however many sessions see it,
* an incremental :class:`AggregationState` API used by the ``Top-k-Pkg`` search
  to evaluate ``U(p ∪ {t})`` and ``U(p ∪ {τ})`` (τ = boundary vector) without
  re-aggregating from scratch,
* enumeration and random generation of candidate packages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile, Aggregation
from repro.utils.rng import RngLike, ensure_rng

#: Most package vectors one :class:`PackageEvaluator` memoizes; the memo is
#: cleared when full.  A serving engine's sessions present the same few
#: packages over and over, so a small memo catches nearly every repeat.
VECTOR_MEMO_CAPACITY = 4096


@dataclass(frozen=True, order=True)
class Package:
    """An immutable package: a sorted tuple of item indices.

    The sorted tuple doubles as the package's deterministic identifier, which
    the paper uses as the tie-breaker when two packages have equal utility.
    Slotted: every served round holds its packages.
    """

    __slots__ = ("items",)

    items: Tuple[int, ...]

    @classmethod
    def of(cls, items: Iterable[int]) -> "Package":
        """Create a package from any iterable of item indices (deduplicated)."""
        unique = tuple(sorted(set(int(i) for i in items)))
        if not unique:
            raise ValueError("a package must contain at least one item")
        return cls(unique)

    @property
    def size(self) -> int:
        """Number of items in the package."""
        return len(self.items)

    @property
    def package_id(self) -> Tuple[int, ...]:
        """Deterministic identifier used for tie-breaking."""
        return self.items

    def contains(self, item_index: int) -> bool:
        """Whether the package contains the given item."""
        return item_index in self.items

    def add(self, item_index: int) -> "Package":
        """A new package with ``item_index`` added (no-op if already present)."""
        if item_index in self.items:
            return self
        return Package(tuple(sorted(self.items + (int(item_index),))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __reduce__(self):
        # A frozen slotted dataclass refuses the default slot-state
        # unpickling; rebuild through the constructor.
        return (Package, (self.items,))


class AggregationState:
    """Incremental aggregation state for building packages one item at a time.

    Tracks, per feature, the running sum, count of non-null values, minimum and
    maximum, plus the package size.  This is sufficient to produce the exact
    aggregate vector for any profile (min/max/sum/avg) in O(m), and supports
    hypothetical additions of the boundary vector τ used by ``upper-exp``.
    """

    __slots__ = ("sums", "counts", "mins", "maxs", "size")

    def __init__(
        self,
        sums: np.ndarray,
        counts: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        size: int,
    ) -> None:
        self.sums = sums
        self.counts = counts
        self.mins = mins
        self.maxs = maxs
        self.size = size

    @classmethod
    def empty(cls, num_features: int) -> "AggregationState":
        """State of the empty package."""
        return cls(
            sums=np.zeros(num_features),
            counts=np.zeros(num_features, dtype=int),
            mins=np.full(num_features, np.inf),
            maxs=np.full(num_features, -np.inf),
            size=0,
        )

    def add(self, values: np.ndarray) -> "AggregationState":
        """Return a new state with one more item whose feature vector is ``values``.

        NaN entries are treated as null: they do not contribute to sums, counts,
        minima or maxima, but the package size still increases (the paper's
        ``avg`` divides by ``|p|``).
        """
        values = np.asarray(values, dtype=float)
        null = np.isnan(values)
        contribution = np.where(null, 0.0, values)
        return AggregationState(
            sums=self.sums + contribution,
            counts=self.counts + (~null).astype(int),
            mins=np.where(null, self.mins, np.minimum(self.mins, contribution)),
            maxs=np.where(null, self.maxs, np.maximum(self.maxs, contribution)),
            size=self.size + 1,
        )

    def copy(self) -> "AggregationState":
        """An independent copy of the state."""
        return AggregationState(
            self.sums.copy(), self.counts.copy(), self.mins.copy(), self.maxs.copy(), self.size
        )


class PackageEvaluator:
    """Evaluate packages against a profile, with normalisation and utilities.

    Parameters
    ----------
    catalog:
        The item catalog.
    profile:
        The aggregate feature profile ``V``.
    max_package_size:
        The system-defined maximum package size φ.
    normalisers:
        Optional pre-computed per-feature maximum achievable aggregate values;
        computed from the catalog when omitted.

    Normalised package vectors are memoized by item tuple (at most
    :data:`VECTOR_MEMO_CAPACITY` of them) as tuples of floats:
    :meth:`interned_vector` returns the shared tuple, :meth:`vector` a fresh
    array built from it.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        profile: AggregateProfile,
        max_package_size: int,
        normalisers: Optional[np.ndarray] = None,
    ) -> None:
        if profile.num_features != catalog.num_features:
            raise ValueError(
                f"profile covers {profile.num_features} features but the catalog "
                f"has {catalog.num_features}"
            )
        if max_package_size <= 0:
            raise ValueError(
                f"max_package_size must be > 0, got {max_package_size}"
            )
        self.catalog = catalog
        self.profile = profile
        self.max_package_size = int(max_package_size)
        if normalisers is None:
            normalisers = profile.max_aggregate_values(catalog, self.max_package_size)
        normalisers = np.asarray(normalisers, dtype=float)
        if normalisers.shape != (catalog.num_features,):
            raise ValueError(
                f"normalisers must have shape ({catalog.num_features},), "
                f"got {normalisers.shape}"
            )
        if (normalisers <= 0).any():
            raise ValueError("normalisers must be strictly positive")
        self.normalisers = normalisers
        self._vector_memo: Dict[Tuple[int, ...], Tuple[float, ...]] = {}

    # ------------------------------------------------------------------ basics
    @property
    def num_features(self) -> int:
        """Number of features."""
        return self.catalog.num_features

    # ------------------------------------------------------- direct evaluation
    def raw_aggregate(self, package: Package) -> np.ndarray:
        """Unnormalised aggregate feature vector of ``package``."""
        indices = np.asarray(package.items, dtype=int)
        values = self.catalog.features[indices]
        return self.profile.aggregate(values)

    def interned_vector(self, package: Package) -> Tuple[float, ...]:
        """Normalised feature vector of ``package`` as the memo's shared tuple."""
        memo = self._vector_memo
        vector = memo.get(package.items)
        if vector is None:
            if len(memo) >= VECTOR_MEMO_CAPACITY:
                memo.clear()
            vector = memo[package.items] = tuple(
                (self.raw_aggregate(package) / self.normalisers).tolist()
            )
        return vector

    def vector(self, package: Package) -> np.ndarray:
        """Normalised feature vector of ``package`` (each entry in [0, 1]).

        A fresh array on every call: writing to it leaves the memo intact.
        """
        return np.array(self.interned_vector(package))

    def vectors(self, packages: Sequence[Package]) -> np.ndarray:
        """Normalised feature vectors for a sequence of packages, stacked."""
        if not packages:
            return np.zeros((0, self.num_features))
        return np.array([self.interned_vector(p) for p in packages])

    def utility(self, package: Package, weights: np.ndarray) -> float:
        """Linear utility ``w · p`` of ``package`` under weight vector ``weights``."""
        weights = np.asarray(weights, dtype=float)
        return float(self.vector(package) @ weights)

    def utilities(self, packages: Sequence[Package], weights: np.ndarray) -> np.ndarray:
        """Utilities of several packages under one weight vector."""
        weights = np.asarray(weights, dtype=float)
        return self.vectors(packages) @ weights

    # --------------------------------------------------- incremental evaluation
    def empty_state(self) -> AggregationState:
        """Aggregation state of the empty package."""
        return AggregationState.empty(self.num_features)

    def state_add_item(self, state: AggregationState, item_index: int) -> AggregationState:
        """State after adding catalog item ``item_index``."""
        return state.add(self.catalog.feature_values(item_index))

    def state_add_values(self, state: AggregationState, values: np.ndarray) -> AggregationState:
        """State after adding a hypothetical item with feature vector ``values``."""
        return state.add(values)

    def state_vector(self, state: AggregationState) -> np.ndarray:
        """Normalised feature vector of the package described by ``state``."""
        if state.size == 0:
            return np.zeros(self.num_features)
        raw = np.zeros(self.num_features)
        for j, aggregation in enumerate(self.profile.aggregations):
            if aggregation is Aggregation.NULL or state.counts[j] == 0:
                continue
            if aggregation is Aggregation.SUM:
                raw[j] = state.sums[j]
            elif aggregation is Aggregation.AVG:
                raw[j] = state.sums[j] / state.size
            elif aggregation is Aggregation.MIN:
                raw[j] = state.mins[j]
            elif aggregation is Aggregation.MAX:
                raw[j] = state.maxs[j]
        return raw / self.normalisers

    def state_utility(self, state: AggregationState, weights: np.ndarray) -> float:
        """Utility of the package described by ``state`` under ``weights``."""
        weights = np.asarray(weights, dtype=float)
        return float(self.state_vector(state) @ weights)

    def state_for_package(self, package: Package) -> AggregationState:
        """Aggregation state for an existing package."""
        state = self.empty_state()
        for item_index in package:
            state = self.state_add_item(state, item_index)
        return state

    # ------------------------------------------------------------- enumeration
    def enumerate_packages(
        self,
        max_size: Optional[int] = None,
        item_indices: Optional[Sequence[int]] = None,
    ) -> Iterator[Package]:
        """Enumerate every package of size 1..max_size over the given items.

        Intended for small instances (worked examples, correctness oracles);
        the number of packages is exponential in the item count.
        """
        limit = max_size if max_size is not None else self.max_package_size
        limit = min(limit, self.max_package_size)
        pool = (
            list(item_indices)
            if item_indices is not None
            else list(range(self.catalog.num_items))
        )
        for size in range(1, limit + 1):
            for combo in itertools.combinations(pool, size):
                yield Package(tuple(combo))

    def random_package(
        self,
        rng: RngLike = None,
        size: Optional[int] = None,
        item_indices: Optional[Sequence[int]] = None,
    ) -> Package:
        """Draw a uniformly random package of the given (or random) size.

        ``item_indices`` restricts the draw to those items; an integer array
        is used as it is, so a caller drawing often should pass one.
        The draw is ``Generator.choice`` over positions, which is what
        ``choice`` over an array does too: the result and the generator's
        state after it are the same either way.
        """
        generator = rng if isinstance(rng, np.random.Generator) else ensure_rng(rng)
        if item_indices is None:
            pool = None
            pool_size = self.catalog.num_items
        else:
            pool = np.asarray(item_indices, dtype=int)
            pool_size = pool.size
        if pool_size == 0:
            raise ValueError("cannot draw a package from an empty item pool")
        max_size = min(self.max_package_size, pool_size)
        chosen_size = (
            int(size) if size is not None else int(generator.integers(1, max_size + 1))
        )
        if not 1 <= chosen_size <= max_size:
            raise ValueError(
                f"size must be between 1 and {max_size}, got {chosen_size}"
            )
        picked = generator.choice(pool_size, size=chosen_size, replace=False).tolist()
        if pool is not None:
            # Repeated indices collapse, as they would in ``Package.of``.
            picked = set(pool[picked].tolist())
        return Package(tuple(sorted(picked)))

    def random_packages(
        self,
        count: int,
        rng: RngLike = None,
        size: Optional[int] = None,
        distinct: bool = True,
        max_attempts_factor: int = 20,
    ) -> List[Package]:
        """Draw ``count`` random packages, optionally all distinct."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        generator = ensure_rng(rng)
        packages: List[Package] = []
        seen = set()
        attempts = 0
        max_attempts = max(count * max_attempts_factor, 10)
        while len(packages) < count and attempts < max_attempts:
            attempts += 1
            candidate = self.random_package(generator, size=size)
            if distinct and candidate.items in seen:
                continue
            seen.add(candidate.items)
            packages.append(candidate)
        if len(packages) < count:
            raise RuntimeError(
                f"could only generate {len(packages)} distinct packages out of "
                f"{count} requested; the package space may be too small"
            )
        return packages

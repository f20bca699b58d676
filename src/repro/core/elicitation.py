"""The end-to-end preference-elicitation package recommender.

:class:`PackageRecommender` ties the pieces of the paper's system together:

1. keep a Gaussian-mixture prior over the hidden utility weights and a pool of
   constrained weight samples representing the current posterior (§2.1, §3);
2. on every round, present the user the current best packages under a chosen
   ranking semantics *plus* a few random packages for exploration (§2.2);
3. interpret the user's click as pairwise preferences "clicked ≻ unclicked",
   store them in the preference DAG, and maintain the sample pool against the
   new constraints instead of resampling from scratch (§3.3–3.4);
4. answer top-k package queries by running ``Top-k-Pkg`` for every weight
   sample — batched through one shared sorted-list walk
   (:class:`~repro.topk.batch_search.BatchTopKPackageSearcher`) — and
   aggregating under EXP / TKP / MPO (§4).

Typical usage::

    recommender = PackageRecommender(catalog, profile, ElicitationConfig(k=5))
    round_ = recommender.recommend()
    recommender.feedback(clicked=round_.presented[2])
    best = recommender.current_top_k()
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.items import ItemCatalog
from repro.core.noise import NoiseModel
from repro.core.packages import Package, PackageEvaluator
from repro.core.preferences import HistoryTrie, PreferenceStore
from repro.core.profiles import AggregateProfile
from repro.core.predicates import PredicateSet
from repro.core.ranking import RankingSemantics, rank_from_samples
from repro.sampling.base import ConstraintSet, SamplePool, Sampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.importance import ImportanceSampler
from repro.sampling.maintenance import (
    HybridMaintenance,
    NaiveMaintenance,
    SampleMaintainer,
    ThresholdMaintenance,
)
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.sampling.rejection import RejectionSampler
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.topk.package_search import PackageSearchResult
from repro.utils.rng import ensure_rng

#: Sampler names accepted by :class:`ElicitationConfig`.
SAMPLER_NAMES = ("rejection", "importance", "mcmc")

#: Maintenance strategy names accepted by :class:`ElicitationConfig`.
MAINTENANCE_NAMES = ("naive", "ta", "hybrid", "resample")

#: External pool source: ``provider(constraints, count, stale_pool) -> pool``.
PoolProvider = Callable[
    [ConstraintSet, int, Optional[SamplePool]], SamplePool
]


def click_constraint_set(
    evaluator: PackageEvaluator,
    clicked: Package,
    presented: Sequence[Package],
    reduced: bool = True,
) -> ConstraintSet:
    """The constraint set one click on ``clicked`` among ``presented`` induces.

    Mirrors what :meth:`PackageRecommender.feedback` does to a *fresh* session
    (an empty preference DAG): the click yields ``clicked ≻ p`` for every
    other presented package, and the (optionally transitively reduced) set of
    half-space directions is the resulting constraint set.  The serving
    layer's :class:`~repro.service.pool_repository.WarmStartPlanner` uses this
    to enumerate the first-click pools a cold session can land on, keyed by
    the same fingerprints real sessions produce.
    """
    store = PreferenceStore(evaluator.catalog.num_features, on_cycle="drop")
    store.add_click_feedback(evaluator, clicked, presented)
    return ConstraintSet.from_store(store, reduced=reduced)


@dataclass
class ElicitationConfig:
    """Configuration of the preference-elicitation recommender.

    Attributes
    ----------
    k:
        Number of "best" packages recommended per round (and returned by
        :meth:`PackageRecommender.current_top_k`).
    num_random:
        Number of additional random exploration packages presented per round.
    max_package_size:
        The system-defined maximum package size φ.
    num_samples:
        Size of the weight-vector sample pool representing the posterior.
    sampler:
        ``"rejection"``, ``"importance"`` or ``"mcmc"``.
    semantics:
        Ranking semantics used to aggregate per-sample results (EXP/TKP/MPO).
    num_prior_components:
        Number of Gaussians in the prior mixture.
    prior_spread:
        Standard deviation of each prior component.
    noise_psi:
        Optional feedback-noise parameter ψ (§7); ``None`` = noise-free.
    maintenance:
        How the sample pool is updated on new feedback: ``"naive"``, ``"ta"``,
        ``"hybrid"`` (Algorithm 1) or ``"resample"`` (regenerate from scratch).
    hybrid_gamma:
        Fall-back parameter γ of the hybrid maintenance strategy.
    search_sample_budget:
        How many of the pooled weight samples are pushed through ``Top-k-Pkg``
        when answering a top-k query (an evenly spaced subset of the pool is
        used).  ``None`` searches for every sample, exactly as §4 describes;
        a finite budget keeps interactive latency bounded for large pools.
    search_beam_width:
        Per-sample beam width passed to the package searcher; ``None``
        keeps the per-sample search exact.  The batch searcher shares its
        queue, so it pools the budget — ``beam_width × pool size``
        candidates total; when that cap binds, results may differ from
        per-sample sequential beam search (both are bounded-work anytime
        modes, not exact).
    search_items_cap:
        Cap on items accessed per search; ``None`` means no cap.  A capped
        vector reports its best among the candidates the walk discovered,
        and the batch walk shares candidates across all the vectors (and,
        in a serving engine, all the pools) it searches together — so capped
        results depend on what was searched alongside, and batched serving
        may differ from serving each session alone.
    seed:
        Seed for all randomness inside the recommender.
    """

    k: int = 5
    num_random: int = 5
    max_package_size: int = 5
    num_samples: int = 200
    sampler: str = "mcmc"
    semantics: RankingSemantics = RankingSemantics.EXP
    num_prior_components: int = 1
    prior_spread: float = 0.5
    noise_psi: Optional[float] = None
    maintenance: str = "hybrid"
    hybrid_gamma: float = 0.025
    search_sample_budget: Optional[int] = None
    search_beam_width: Optional[int] = 2_000
    search_items_cap: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.num_random < 0:
            raise ValueError(f"num_random must be >= 0, got {self.num_random}")
        if self.max_package_size <= 0:
            raise ValueError(
                f"max_package_size must be > 0, got {self.max_package_size}"
            )
        if self.num_samples <= 0:
            raise ValueError(f"num_samples must be > 0, got {self.num_samples}")
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"sampler must be one of {SAMPLER_NAMES}, got {self.sampler!r}"
            )
        if self.maintenance not in MAINTENANCE_NAMES:
            raise ValueError(
                f"maintenance must be one of {MAINTENANCE_NAMES}, "
                f"got {self.maintenance!r}"
            )
        if self.search_sample_budget is not None and self.search_sample_budget <= 0:
            raise ValueError(
                f"search_sample_budget must be > 0 or None, "
                f"got {self.search_sample_budget}"
            )
        self.semantics = RankingSemantics.parse(self.semantics)


@dataclass(init=False)
class RecommendationRound:
    """What the system presented to the user in one round.

    Attributes
    ----------
    recommended:
        The "exploit" packages: current best under the chosen semantics.
    random_packages:
        The "explore" packages: drawn uniformly at random (none by default).

    Slotted: a session keeps its last round and a client every round it is
    served.  A slot cannot carry a class-level default, so the default
    empty list comes from the hand-written ``__init__``.
    """

    __slots__ = ("recommended", "random_packages")

    recommended: List[Package]
    random_packages: List[Package]

    def __init__(
        self,
        recommended: List[Package],
        random_packages: Optional[List[Package]] = None,
    ) -> None:
        self.recommended = recommended
        self.random_packages = [] if random_packages is None else random_packages

    def __reduce__(self):
        return (RecommendationRound, (self.recommended, self.random_packages))

    @property
    def presented(self) -> List[Package]:
        """All packages shown to the user, recommended first."""
        return list(self.recommended) + list(self.random_packages)

    def __len__(self) -> int:
        return len(self.recommended) + len(self.random_packages)


class PackageRecommender:
    """Bayesian preference-elicitation recommender for top-k packages.

    Parameters
    ----------
    catalog:
        The item catalog.
    profile:
        The aggregate feature profile ``V``.
    config:
        Elicitation configuration; defaults are reasonable for interactive use.
    prior:
        Optional custom Gaussian-mixture prior over the weight vector; by
        default a zero-centred mixture with ``config.num_prior_components``
        components is used.
    predicates:
        Optional package-schema predicates enforced on recommended packages.
    catalog_predicate:
        Optional item-eligibility predicate
        (:class:`repro.data.columnar.CatalogPredicate`) pushed down into
        the searcher's sorted-list walk and into random-package draws, so
        every presented package contains only eligible items.
    batch_searcher:
        Optional searcher to rank with, shared with its owner: a serving
        engine passes its own, so its sessions hold no per-catalog objects
        of their own.  It must have been built over ``catalog``,
        ``profile`` and ``predicates`` with the configuration's
        ``max_package_size``, beam width and items cap, and with
        ``catalog_predicate``; the recommender's :attr:`evaluator` is the
        searcher's.  By default the recommender builds its own.
    seed:
        Seed of the recommender's RNG, overriding ``config.seed``: a serving
        engine passes each session's seed beside one shared configuration.
    history:
        Optional :class:`~repro.core.preferences.HistoryTrie` over the
        recommender's evaluator: :attr:`preferences` starts at its root and
        each click moves it to the shared node of the click history, so
        recommenders with one history share one store and one cone.  By
        default the recommender keeps a private store and adds to it, as
        it does to any private store set on :attr:`preferences`.

    The sampler and the §3.4 maintainer are built on first use: a session
    whose pools come from a provider never uses either.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        profile: AggregateProfile,
        config: Optional[ElicitationConfig] = None,
        prior: Optional[GaussianMixture] = None,
        predicates: Optional[PredicateSet] = None,
        catalog_predicate=None,
        batch_searcher: Optional[BatchTopKPackageSearcher] = None,
        seed: Optional[int] = None,
        history: Optional[HistoryTrie] = None,
    ) -> None:
        self.config = config if config is not None else ElicitationConfig()
        self.catalog = catalog
        self.profile = profile
        if batch_searcher is None:
            batch_searcher = BatchTopKPackageSearcher(
                PackageEvaluator(catalog, profile, self.config.max_package_size),
                predicates=predicates,
                beam_width=self.config.search_beam_width,
                max_items_accessed=self.config.search_items_cap,
                catalog_predicate=catalog_predicate,
            )
        elif (
            batch_searcher.evaluator.catalog is not catalog
            or batch_searcher.evaluator.max_package_size
            != self.config.max_package_size
        ):
            raise ValueError(
                "batch_searcher must search this catalog with packages of at "
                f"most max_package_size={self.config.max_package_size} items"
            )
        elif batch_searcher.catalog_predicate is not catalog_predicate:
            raise ValueError(
                "batch_searcher must have been built with this catalog_predicate"
            )
        # The pool-wide top-k queries walk the sorted lists once for all
        # samples.
        self.batch_searcher = batch_searcher
        self.evaluator = batch_searcher.evaluator
        self.rng = ensure_rng(self.config.seed if seed is None else seed)
        if prior is None:
            prior = GaussianMixture.default_prior(
                catalog.num_features,
                self.config.num_prior_components,
                self.config.prior_spread,
                rng=self.rng,
            )
        if prior.dimension != catalog.num_features:
            raise ValueError(
                f"prior dimension {prior.dimension} does not match the catalog's "
                f"{catalog.num_features} features"
            )
        self.prior = prior
        self.noise = (
            NoiseModel(self.config.noise_psi)
            if self.config.noise_psi is not None
            else None
        )
        if history is None:
            self.preferences = PreferenceStore(catalog.num_features, on_cycle="drop")
        elif history.evaluator is not self.evaluator:
            raise ValueError("history must be a trie over this recommender's evaluator")
        else:
            self.preferences = history.root
        self.history = history
        self.catalog_predicate = catalog_predicate
        # The searcher's read-only array: sessions sharing a searcher share it.
        self._eligible_items = batch_searcher.eligible_items
        if self._eligible_items is not None and self._eligible_items.size == 0:
            raise ValueError(
                "catalog_predicate eliminates every item; nothing to recommend"
            )
        self._pool: Optional[SamplePool] = None
        self._stale_pool: Optional[SamplePool] = None
        self._pool_provider: Optional[PoolProvider] = None
        self._last_round: Optional[RecommendationRound] = None
        self.rounds_presented = 0
        self.clicks_received = 0

    # ---------------------------------------------------------------- plumbing
    @cached_property
    def sampler(self) -> Sampler:
        """The session's own sampler, drawing from the session RNG."""
        noise_probability = self.config.noise_psi
        if self.config.sampler == "rejection":
            return RejectionSampler(
                self.prior, rng=self.rng, noise_probability=noise_probability
            )
        if self.config.sampler == "importance":
            return ImportanceSampler(
                self.prior, rng=self.rng, noise_probability=noise_probability
            )
        return MetropolisHastingsSampler(
            self.prior, rng=self.rng, noise_probability=noise_probability
        )

    @cached_property
    def _maintainer(self) -> Optional[SampleMaintainer]:
        if self.config.maintenance == "resample":
            return None
        if self.config.maintenance == "naive":
            strategy = NaiveMaintenance()
        elif self.config.maintenance == "ta":
            strategy = ThresholdMaintenance()
        else:
            strategy = HybridMaintenance(self.config.hybrid_gamma)
        return SampleMaintainer(strategy, self.sampler)

    # ------------------------------------------------------------------ state
    @property
    def constraints(self) -> ConstraintSet:
        """The current feedback constraints (transitively reduced).

        The store's cone: the same object until the next accepted click,
        and, on a trie node, the one every recommender with this click
        history reads.
        """
        return self.preferences.cone

    @property
    def num_feedback_preferences(self) -> int:
        """Number of pairwise preferences accumulated so far."""
        return len(self.preferences)

    @property
    def last_round(self) -> Optional[RecommendationRound]:
        """The most recently presented round, if any."""
        return self._last_round

    @property
    def pending_pool(self) -> Optional[SamplePool]:
        """The materialised sample pool, or ``None`` when it needs rebuilding."""
        return self._pool

    @property
    def stale_pool(self) -> Optional[SamplePool]:
        """The pre-feedback pool parked for the provider to maintain, if any."""
        return self._stale_pool

    def set_pool_provider(self, provider: Optional["PoolProvider"]) -> None:
        """Delegate sample-pool acquisition to an external provider.

        A serving engine uses this hook to source pools from a shared
        repository (:class:`~repro.service.pool_repository.PoolRepository`,
        keyed by the constraint-set fingerprint) instead of sampling inside
        every session.
        The provider is called with ``(constraints, count, stale_pool)``
        where ``stale_pool`` is the pre-feedback pool, if any, that the
        provider may maintain incrementally (§3.4) rather than resampling
        from scratch.
        """
        self._pool_provider = provider

    def set_pool(self, pool: Optional[SamplePool], stale: bool = False) -> None:
        """Install an externally generated pool (snapshot restore, testing).

        ``stale=True`` parks ``pool`` as the pre-feedback pool instead and
        leaves the current pool pending: the state of a session clicked
        since its last pool was built.
        """
        if stale:
            self._pool, self._stale_pool = None, pool
        else:
            self._pool, self._stale_pool = pool, None

    def sample_pool(self, refresh: bool = False) -> SamplePool:
        """The current pool of posterior weight samples (generated lazily)."""
        if self._pool is None or refresh:
            if self._pool_provider is not None:
                self._pool = self._pool_provider(
                    self.constraints, self.config.num_samples, self._stale_pool
                )
                self._stale_pool = None
            else:
                self._pool = self.sampler.sample(
                    self.config.num_samples, self.constraints
                )
        return self._pool

    def estimated_weights(self) -> np.ndarray:
        """Point estimate of the user's weight vector (posterior mean)."""
        return self.sample_pool().mean_weight_vector()

    # ------------------------------------------------------------- recommend
    def current_top_k(
        self,
        k: Optional[int] = None,
        semantics=None,
    ) -> List[Package]:
        """Top-k packages under the current posterior and ranking semantics."""
        k = k if k is not None else self.config.k
        semantics = (
            RankingSemantics.parse(semantics)
            if semantics is not None
            else self.config.semantics
        )
        pool = self.sample_pool()
        indices = self.search_sample_indices(pool)
        results = self._per_sample_results(pool, k, indices)
        return rank_from_samples(
            results, k, semantics, sample_weights=pool.weights[indices]
        )

    def search_sample_indices(self, pool: SamplePool) -> np.ndarray:
        """Indices of the pool samples searched per round (evenly spaced subset).

        Exposed so a serving engine answering the top-k query *for* a session
        (e.g. batching the searches of many sessions into one walk) selects
        exactly the rows :meth:`current_top_k` would search itself.
        """
        budget = self.config.search_sample_budget
        if budget is None or budget >= pool.size:
            return np.arange(pool.size)
        return np.linspace(0, pool.size - 1, budget).round().astype(int)

    def _per_sample_results(
        self, pool: SamplePool, k: int, indices: Optional[np.ndarray] = None
    ) -> List[PackageSearchResult]:
        if indices is None:
            indices = np.arange(pool.size)
        return self.batch_searcher.search_many(pool.samples[indices], k)

    def recommend(
        self, recommended: Optional[List[Package]] = None
    ) -> RecommendationRound:
        """Produce one round of recommendations: best packages + random packages.

        ``recommended`` lets an engine driving many sessions inject the
        "exploit" packages (e.g. a cached top-k shared by every session with
        the same posterior); by default they are computed here.
        """
        if recommended is None:
            recommended = self.current_top_k()
        exclude = {package.items for package in recommended}
        random_packages: List[Package] = []
        attempts = 0
        while (
            len(random_packages) < self.config.num_random
            and attempts < 50 * max(self.config.num_random, 1)
        ):
            attempts += 1
            candidate = self.evaluator.random_package(
                self.rng, item_indices=self._eligible_items
            )
            if candidate.items in exclude:
                continue
            exclude.add(candidate.items)
            random_packages.append(candidate)
        round_ = RecommendationRound(recommended, random_packages)
        self._last_round = round_
        self.rounds_presented += 1
        return round_

    # --------------------------------------------------------------- feedback
    def feedback(
        self,
        clicked: Package,
        presented: Optional[Sequence[Package]] = None,
    ) -> int:
        """Record a click on ``clicked`` among ``presented`` packages.

        ``presented`` defaults to the packages of the most recent
        :meth:`recommend` round.  Returns the number of pairwise preferences
        added (cycle-conflicting preferences are dropped).
        """
        if presented is None:
            if self._last_round is None:
                raise ValueError(
                    "no presented packages available; call recommend() first or "
                    "pass presented explicitly"
                )
            presented = self._last_round.presented
        if clicked not in presented:
            raise ValueError("the clicked package must be one of the presented packages")
        if self.preferences.interned:
            self.preferences, added = self.history.click(
                self.preferences, clicked, presented
            )
        else:
            added = self.preferences.add_click_feedback(
                self.evaluator, clicked, presented
            )
        self.clicks_received += 1
        if not added:
            return 0
        self._update_pool(added)
        return len(added)

    def _update_pool(self, new_preferences) -> None:
        """Maintain (or regenerate) the sample pool after new feedback."""
        if self._pool is None:
            return
        if self._pool_provider is not None:
            # The provider owns pool lifecycle: hand it the stale pool so it
            # can maintain the surviving samples (or hit its cache) lazily.
            self._stale_pool = self._pool
            self._pool = None
            return
        if self._maintainer is None:
            self._pool = None  # force full regeneration on next use
            return
        constraints = self.constraints
        pool = self._pool
        for preference in new_preferences:
            pool, _ = self._maintainer.apply_feedback(
                pool, preference.direction, updated_constraints=constraints
            )
        self._pool = pool

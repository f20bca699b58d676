"""The pool repository: one table of posterior pools, filled inline.

* :class:`PoolRepository` — the store every layer that touches pools goes
  through: ``get`` / ``put`` / ``pin`` / ``evict`` / ``fill`` keyed by the
  engine's pool keys (``n<count>:<ConstraintSet.fingerprint()>``).  It owns
  one LRU pool cache, a pinned (eviction-exempt) table, and the fills, which
  run on the calling thread from :class:`~repro.sampling.fillspec.FillSpec`
  records.
* :class:`WarmStartPlanner` — precomputes and **pins** the always-hot pools
  (the empty-prefix pool and the top-K first-click pools) at engine start, so
  cold sessions never sample.

**Determinism is the load-bearing design decision.**  A fill for key ``k``
draws from a sampler seeded by ``k`` (the engine's spec factory derives the
RNG seed from its own seed plus the key), never from a shared stream.  Pool
contents therefore depend only on the key — not on the order or batching of
fills — which makes a refill after eviction reproduce the evicted pool
(pinned by ``tests/test_pool_repository.py``) and makes a snapshot's pool
re-derivable from its fingerprint reference alone when every cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.fillspec import FillSpec, execute_fill
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.service.pool_cache import CacheStats, SamplePoolCache

__all__ = [
    "FillSpecFactory",
    "PoolFillJob",
    "PoolRepository",
    "WarmStartPlanner",
    "WarmStartReport",
]

#: The fill seam: ``factory(pool_key, constraints, count) -> FillSpec``.
#: The engine's factory folds its seed root into the spec's derived seed.
FillSpecFactory = Callable[[str, ConstraintSet, int], FillSpec]


@dataclass(frozen=True)
class PoolFillJob:
    """One pool build request: draw ``count`` samples valid under ``constraints``."""

    key: str
    constraints: ConstraintSet
    count: int


class PoolRepository:
    """Keyed storage and build service for shared sample pools.

    The engine's provisioning stage, snapshot restore and the warm-start
    planner all go through it.

    Parameters
    ----------
    spec_factory:
        ``factory(pool_key, constraints, count) -> FillSpec``; the engine
        folds its seed root into the spec's derived seed, which is how the
        determinism contract (module docstring) is honoured.
    prior:
        The prior every fill samples from (the engine's own).
    capacity:
        LRU budget; ``0`` disables storage entirely — every ``get`` misses
        and ``put``/``pin`` are no-ops — which is how the per-session
        baseline runs without branching at call sites.  Pinned pools do not
        count against the LRU budget.
    """

    def __init__(
        self,
        spec_factory: FillSpecFactory,
        prior: GaussianMixture,
        capacity: int = 512,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.spec_factory = spec_factory
        self.prior = prior
        self.capacity = int(capacity)
        self.cache = SamplePoolCache(capacity)
        self.pinned: Dict[str, SamplePool] = {}
        self.fills = 0
        self.samples_filled = 0
        self.fill_batches = 0
        self.telemetry = None
        # Telemetry instruments, resolved once in attach_telemetry so
        # record_fill pays no registry lookup per fill.
        self._fill_counter = None
        self._fill_samples = None
        self._fill_latency = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind the fill instruments and the apex alarm to ``telemetry``."""
        self.telemetry = telemetry
        registry = telemetry.registry
        self._fill_counter = registry.counter(
            "repro_pool_fills_total", "Pools built"
        )
        self._fill_samples = registry.counter(
            "repro_pool_samples_filled_total",
            "Posterior samples drawn by pool fills",
        )
        self._fill_latency = registry.histogram(
            "repro_pool_fill_seconds", "Wall-clock seconds per pool fill"
        )

    # ----------------------------------------------------------------- storage
    def get(self, key: str) -> Optional[SamplePool]:
        pool = self.pinned.get(key)
        if pool is not None:
            # A pinned hit is a cache win like any other: count it (and the
            # sampling it saved) in the ordinary statistics.
            self.cache.stats.hits += 1
            self.cache.samples_saved += pool.size
            return pool
        return self.cache.get(key)

    def peek(self, key: str) -> Optional[SamplePool]:
        pool = self.pinned.get(key)
        if pool is not None:
            return pool
        return self.cache.peek(key)

    def put(self, key: str, pool: SamplePool) -> None:
        if key in self.pinned:
            self.pinned[key] = pool  # a rebuilt pool replaces the pinned copy
            return
        self.cache.put(key, pool)

    def pin(self, key: str, pool: Optional[SamplePool] = None) -> None:
        if self.capacity == 0:
            return  # a disabled repository stores nothing, pinned or not
        # Always lift any LRU copy out first: a key must live in exactly one
        # of the two tables, or evict()/__len__ would see duplicates.
        cached = self.cache.pop(key)
        if pool is None:
            pool = cached
            if pool is None:
                if key in self.pinned:
                    return
                raise KeyError(f"cannot pin unknown pool key {key!r}")
        self.pinned[key] = pool

    def unpin(self, key: str) -> None:
        pool = self.pinned.pop(key, None)
        if pool is not None:
            self.cache.put(key, pool)

    def evict(self, key: str) -> bool:
        if self.pinned.pop(key, None) is not None:
            return True
        return self.cache.pop(key) is not None

    def __contains__(self, key: str) -> bool:
        return key in self.pinned or key in self.cache

    def __len__(self) -> int:
        return len(self.pinned) + len(self.cache)

    def keys(self) -> List[str]:
        """Every stored key (pinned first, then LRU order)."""
        return list(self.pinned) + self.cache.keys()

    def pinned_keys(self) -> List[str]:
        """Keys currently exempt from eviction."""
        return list(self.pinned)

    # ------------------------------------------------------------------- fills
    def record_fill(self, key: str, pool: SamplePool) -> None:
        """Count a completed fill; every fill passes through here.

        A chain seeded at the prior's apex (``chain_seed == "apex"``) found
        no interior point of the cone, so its pool may be copies of one
        point: that fires the ``pool_apex_seed`` alarm.
        """
        self.fills += 1
        self.samples_filled += pool.size
        if self.telemetry is None:
            return
        self._fill_counter.inc()
        self._fill_samples.inc(pool.size)
        seconds = pool.stats.get("fill_seconds")
        if seconds is not None:
            self._fill_latency.observe(float(seconds))
        if pool.stats.get("chain_seed") == "apex":
            self.telemetry.alarm("pool_apex_seed", key=key, count=pool.size)

    def _fill(self, key: str, constraints: ConstraintSet, count: int) -> SamplePool:
        pool = execute_fill(self.spec_factory(key, constraints, count), self.prior)
        self.record_fill(key, pool)
        return pool

    def fill_one(self, key: str, constraints: ConstraintSet, count: int) -> SamplePool:
        """Build one pool with a sampler seeded for ``key``."""
        return self._fill(key, constraints, count)

    def fill_many(self, jobs: Sequence[PoolFillJob]) -> Dict[str, SamplePool]:
        """Build a batch of pools; returns ``{job.key: pool}``."""
        jobs = list(jobs)
        if not jobs:
            return {}
        self.fill_batches += 1
        # Not through fill_one: perfbench/layers.py times and counts fill_one
        # and fill_many separately, so a batch must not also count per job.
        return {job.key: self._fill(job.key, job.constraints, job.count) for job in jobs}

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction/put counters (pinned hits count as hits)."""
        return self.cache.stats

    @property
    def samples_saved(self) -> int:
        """Total sample draws avoided by cache and pinned hits."""
        return self.cache.samples_saved

    def describe(self) -> dict:
        """Storage and fill counters, for :meth:`EngineStats.as_dict`."""
        return {
            "capacity": self.capacity,
            "entries": len(self),
            "pinned": len(self.pinned),
            "fills": self.fills,
            "samples_filled": self.samples_filled,
            "fill_batches": self.fill_batches,
        }


# ================================================================ warm start
@dataclass
class WarmStartReport:
    """What one warm-start pass precomputed.

    ``first_clicks_skipped`` is True when the configuration presents private
    exploration packages (``num_random > 0``): every real first click then
    induces preferences against packages no planner can foresee, so the
    first-click pools were not warmed (only the empty-prefix pool was).
    """

    warmed_keys: List[str]
    pools_filled: int
    first_click_sets: int
    first_clicks_skipped: bool = False

    def __len__(self) -> int:
        return len(self.warmed_keys)


@dataclass
class LogWarmStartReport:
    """What one log-mined warm-start pass precomputed.

    ``prefixes_mined`` counts every distinct constraint-set prefix observed
    in the log; ``warmed_keys`` are the (up to ``top_n``) most frequent ones
    whose pools are now filled and pinned.
    """

    warmed_keys: List[str]
    pools_filled: int
    prefixes_mined: int

    def __len__(self) -> int:
        return len(self.warmed_keys)


class WarmStartPlanner:
    """Precompute and pin the always-hot pools so cold sessions never sample.

    Two pool families are always hot in elicitation traffic: the
    *empty-prefix* pool (every new session's first round) and the pools one
    click away from it (round two of every session that clicked a recommended
    package).  The planner derives both from the engine's own machinery:

    1. fill the empty-prefix pool and pin it;
    2. compute its ranked top-k list exactly as a session would (same search
       budget, same semantics) and park it in the engine's top-k cache — cold
       sessions skip the search too;
    3. for each of the top ``first_clicks`` recommended packages, derive the
       constraint set that click induces
       (:func:`~repro.core.elicitation.click_constraint_set` — identical to a
       fresh session's feedback), fill all those pools in one
       :meth:`~PoolRepository.fill_many`, and pin them.

    The first-click sets assume the presented list *is* the recommended list
    (``num_random == 0``).  With ``num_random > 0`` every session presents
    private exploration packages, so a real first click — even one on a
    recommended package — induces ``clicked ≻ random_i`` preferences whose
    fingerprint no planner can foresee; warming those pools would pin work
    no session can ever hit.  The planner therefore warms only the
    empty-prefix pool in that configuration and reports
    ``first_clicks_skipped=True``.  Pinned pools are exempt from LRU
    eviction and are shared through the repository like any other pool.
    """

    def __init__(self, engine, first_clicks: Optional[int] = None) -> None:
        if first_clicks is not None and first_clicks < 0:
            raise ValueError(f"first_clicks must be >= 0, got {first_clicks}")
        self.engine = engine
        self.first_clicks = (
            first_clicks
            if first_clicks is not None
            else engine.config.elicitation.k
        )

    def _repository(self) -> PoolRepository:
        """The engine's repository; a storage-disabled one cannot hold pins."""
        repository = self.engine.pool_repository
        if repository.capacity == 0:
            raise ValueError(
                "warm start requires a pool cache (pool_cache_size > 0): "
                "with storage disabled there is nowhere to pin the warm pools"
            )
        return repository

    def warm(self) -> WarmStartReport:
        """Fill and pin the hot pools; returns what was warmed."""
        # Local import: the planner is engine-facing, and importing the
        # recommender at module load would cycle service -> core -> service.
        from repro.core.elicitation import PackageRecommender, click_constraint_set

        engine = self.engine
        repository = self._repository()
        elicitation = engine.config.elicitation
        count = elicitation.num_samples
        # Exploration packages are per-session randomness: with num_random > 0
        # no real first-click fingerprint can match an enumerated one, so
        # filling those pools would pin dead weight (see the class docstring).
        first_clicks = self.first_clicks if elicitation.num_random == 0 else 0
        warmed: List[str] = []
        filled = 0

        empty = ConstraintSet.empty(engine.catalog.num_features)
        empty_key = engine._pool_key(empty, count)
        empty_pool = repository.peek(empty_key)
        if empty_pool is None:
            empty_pool = engine._stamp_pool(
                repository.fill_one(empty_key, empty, count)
            )
            filled += 1
        repository.pin(empty_key, empty_pool)
        warmed.append(empty_key)

        # The round-one "exploit" list every cold session will be served: a
        # probe recommender built like every session's (same config, prior,
        # catalog predicate and the engine's searcher, with the warmed pool
        # injected) computes exactly what any session would.
        probe = PackageRecommender(
            engine.catalog,
            engine.profile,
            config=elicitation,
            prior=engine.prior,
            catalog_predicate=engine.catalog_predicate,
            batch_searcher=engine.batch_searcher,
        )
        probe.set_pool(empty_pool)
        ranked = probe.current_top_k()
        if engine.config.topk_cache_size > 0:
            engine._topk_cache.put(
                engine._topk_key_for(empty_key, empty_pool, elicitation),
                tuple(ranked),
            )

        jobs: List[PoolFillJob] = []
        for clicked in ranked[:first_clicks]:
            constraints = click_constraint_set(engine.evaluator, clicked, ranked)
            key = engine._pool_key(constraints, count)
            if key in repository or any(job.key == key for job in jobs):
                continue
            jobs.append(PoolFillJob(key, constraints, count))
        for job in jobs:
            warmed.append(job.key)
        if jobs:
            pools = repository.fill_many(jobs)
            for job in jobs:
                repository.pin(job.key, engine._stamp_pool(pools[job.key]))
            filled += len(jobs)

        engine.pools_warmed += filled
        return WarmStartReport(
            warmed_keys=warmed,
            pools_filled=filled,
            first_click_sets=len(jobs),
            first_clicks_skipped=(
                self.first_clicks > 0 and elicitation.num_random > 0
            ),
        )

    def warm_from_log(self, store, top_n: int = 8) -> LogWarmStartReport:
        """Fill and pin the pools of the log's most frequent click prefixes.

        Where :meth:`warm` *enumerates* first clicks (and must skip the
        enumeration entirely when exploration packages make real first-click
        fingerprints unforeseeable), this pass mines the fingerprints that
        real sessions **actually produced** — exploration packages, depth-2+
        prefixes and all — from an event-log store
        (:func:`~repro.service.eventlog.mine_click_prefixes`), ranks them by
        session frequency, and fills the top ``top_n`` in one
        :meth:`~PoolRepository.fill_many` batch.  Fills are
        key-deterministic, so the warmed pools are bit-identical to the
        fresh fills a live miss would have produced.
        """
        from repro.service.eventlog import mine_click_prefixes

        if top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        engine = self.engine
        repository = self._repository()
        count = engine.config.elicitation.num_samples
        mined = mine_click_prefixes(store, engine.evaluator)
        jobs: List[PoolFillJob] = []
        warmed: List[str] = []
        for stat in mined[:top_n]:
            key = engine._pool_key(stat.constraints, count)
            pool = repository.peek(key)
            if pool is not None:
                # Already live (e.g. pinned by an earlier pass): re-pin so it
                # survives LRU churn, but do not refill.
                repository.pin(key, pool)
                warmed.append(key)
                continue
            if any(job.key == key for job in jobs):
                continue
            jobs.append(PoolFillJob(key, stat.constraints, count))
        if jobs:
            pools = repository.fill_many(jobs)
            for job in jobs:
                repository.pin(job.key, engine._stamp_pool(pools[job.key]))
                warmed.append(job.key)
        engine.pools_warmed += len(jobs)
        return LogWarmStartReport(
            warmed_keys=warmed,
            pools_filled=len(jobs),
            prefixes_mined=len(mined),
        )

"""The multi-session recommendation engine (request/response facade).

:class:`RecommendationEngine` serves many concurrent preference-elicitation
sessions over one shared catalog.  Per-session state stays tiny (preference
DAG, counters, RNG); the expensive artifacts are shared across sessions:

* **Sample pools** — keyed by the canonical fingerprint of the session's
  constraint set and owned by a fingerprint-partitioned
  :class:`~repro.service.pool_repository.ShardedPoolRepository`: every pool lookup
  routes by key to its owning shard, each shard has its own LRU budget and
  pinned (warm) set, and cache fills for different shards are independent
  work items the shard backend can run in parallel.  On a cache miss the
  engine first *maintains* the session's pre-feedback pool (§3.4: keep the
  still-valid samples, top up the rest) instead of resampling from scratch.
  Fills are **key-deterministic**: the fill sampler's RNG derives from the
  engine seed plus the pool key, so a pool's contents do not depend on shard
  placement, shard count, or fill order — 1-shard and N-shard engines serve
  bit-identical rounds, and a snapshot can reference a pool by fingerprint
  alone.
* **Top-k results** — for a given pool, ``k`` and semantics the ranked
  "exploit" packages are identical for every session, so they are cached too;
  only the random exploration packages are drawn per session.  Cache misses
  are answered by the vectorised
  :class:`~repro.topk.batch_search.BatchTopKPackageSearcher`: one shared
  sorted-list walk over the searched samples of every missing pool instead
  of one Python search per weight sample.
* **Warm starts** — :meth:`warm_start` precomputes and pins the
  empty-prefix pool and the top-K first-click pools via
  :class:`~repro.service.pool_repository.WarmStartPlanner`, so cold sessions
  never sample.

Every round runs through one pipeline, whether one session asks
(:meth:`RecommendationEngine.recommend`) or many
(:meth:`RecommendationEngine.recommend_many`):

1. **Acquire and pin** the sessions.
2. **Provision** (``engine.provision``): every session whose pool is pending
   looks it up in the repository once.  Each missing pool is built once per
   key (per session without pool sharing) by the first rung of the reuse
   ladder that applies — donor adaptation, partial refill, §3.4
   maintenance, fresh fill — and all fills go to the repository as one
   :meth:`~repro.service.pool_repository.ShardedPoolRepository.fill_many`
   batch, grouped per shard.
3. **Search** (``search.topk``): one shared walk per ``k`` over every pool
   whose ranked list is not cached.
4. **Serve and log** (``engine.serve_round``): draw each session's
   exploration packages and append the round to the event log.

Each stage hands its results to the next as values; the caches only keep
them for later calls.  Pools needed outside serving (snapshot, checkpoint)
come from the same provisioning stage through the recommender's pool
provider.

Session lifecycle (bounded active set, TTL expiry, LRU swap-out to a durable
store, snapshot/restore) is delegated to
:class:`~repro.service.session_manager.SessionManager`.  Swap-out snapshots
reference their pool by fingerprint (the pool payload is stored once per
distinct key in the session store's pool table) instead of embedding
``num_samples × m`` floats per session — snapshot compaction.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.elicitation import (
    ElicitationConfig,
    PackageRecommender,
    RecommendationRound,
)
from repro.core.items import ItemCatalog
from repro.core.packages import Package, PackageEvaluator
from repro.core.predicates import PredicateSet
from repro.core.preferences import Preference
from repro.core.profiles import AggregateProfile
from repro.core.ranking import rank_from_samples
from repro.obs import Telemetry
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.fillspec import (
    FillContext,
    FillSpec,
    PriorSpec,
    register_fill_context,
)
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.maintenance import partial_refill_split
from repro.sampling.reweight import residual_resample
from repro.service.adaptation import (
    AdaptationConfig,
    ConstraintSimilarityIndex,
    PoolAdapter,
)
from repro.service.eventlog import (
    EVENT_FEEDBACK,
    EVENT_RECOMMEND_SERVED,
    EventLogStore,
    REPLAY_PAYLOAD_KIND,
    ReplayDivergenceError,
)
from repro.service.pool_cache import LruCache
from repro.service.pool_repository import (
    PoolFillJob,
    ShardedPoolRepository,
    WarmStartPlanner,
    WarmStartReport,
    build_shard_backend,
    parse_shard_backend,
)
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.service.session_manager import (
    SessionEntry,
    SessionExpiredError,
    SessionManager,
    SessionNotFoundError,
)
from repro.service.store import SessionStore
from repro.utils.rng import ensure_rng

__all__ = [
    "EngineConfig",
    "EngineStats",
    "RecommendationEngine",
    "SessionNotFoundError",
    "SessionExpiredError",
]


#: Snapshot schema version written by :meth:`RecommendationEngine.snapshot`.
#: Version 2 added pool-by-reference payloads (``pool: {"key": ...}`` without
#: samples); version-1 payloads (pool always embedded) restore unchanged.
SNAPSHOT_VERSION = 2

#: Snapshot versions :meth:`RecommendationEngine.restore` accepts.
SUPPORTED_SNAPSHOT_VERSIONS = (1, 2)

#: Event-log replay payload versions :meth:`RecommendationEngine.restore`
#: accepts (the ``kind == "eventlog-replay"`` payloads an
#: :class:`~repro.service.eventlog.EventLogStore` emits).
SUPPORTED_REPLAY_VERSIONS = (1,)

#: Merged partial-refill pools larger than this multiple of the pool size
#: are residual-resampled back down to the pool size (deterministically, by
#: pool key) to bound memory.
REFILL_MAX_POOL_MULTIPLE = 2.0


def pool_key(constraints: ConstraintSet, count: int) -> str:
    """The repository key of the ``count``-sample pool for ``constraints``."""
    return f"n{count}:{constraints.fingerprint()}"


@dataclass
class _PoolBuild:
    """One pool a provisioning pass builds, and the sessions waiting for it."""

    key: str
    constraints: ConstraintSet
    count: int
    stale: Optional[SamplePool]
    sessions: List[SessionEntry]


@dataclass
class EngineConfig:
    """Serving-layer configuration wrapped around an elicitation config.

    Attributes
    ----------
    elicitation:
        Recommender configuration, shared by every session (each session's
        RNG is seeded with a per-session seed derived from ``seed`` below,
        not with the configuration's ``seed``).
    max_active_sessions:
        In-memory session capacity; LRU sessions beyond it are swapped out to
        the session store (or dropped when no store is configured).
    session_ttl_seconds:
        Idle time after which a session expires permanently; ``None`` never
        expires.
    pool_cache_size:
        Total pool-storage budget of the pool repository, split across its
        shards.  With a positive budget, the sessions of one call that need
        the same pool share one build, and later calls find it in the
        repository.  ``0`` disables pool sharing: every session builds its
        own pool (the per-user baseline).
    pool_shards:
        Number of partitions the repository consistent-hashes pool keys
        across.  Results are bit-identical for any shard count; sharding
        changes *where* fills run, never what they produce.
    pool_shard_backend:
        ``"inline"`` (sequential on the calling thread, default) or
        ``"process"`` (a persistent worker-process pool — fills for
        different shards run in parallel outside the GIL; see
        :class:`~repro.service.pool_repository.ProcessShardBackend`).  A
        ``":N"`` suffix overrides the worker count, e.g. ``"process:4"``.
    topk_cache_size:
        Capacity of the shared top-k result cache.  With this and
        ``pool_cache_size`` both positive, the engine answers each
        session's ranked list: from the cache, or — for every pool of a call
        whose list is not cached — from one shared walk of its batch
        searcher.  ``0``, or a disabled pool cache, leaves every session to
        rank its own pool.
    use_batch_sampler:
        Fill pools with vectorised block rejection sampling (with per-set
        MCMC fallback) instead of the configured per-session sampler kind.
    maintain_on_miss:
        On a pool-cache miss after feedback, keep the still-valid samples of
        the session's previous pool and only top up the deficit (§3.4) rather
        than resampling the full pool.
    pool_adaptation:
        When not ``None``, enable approximate pool reuse: on a pool-repository
        miss a :class:`~repro.service.adaptation.PoolAdapter` looks for live
        donor pools whose constraint sets are near the target (prefix /
        one-click-apart / high-overlap, via a similarity index over the keys
        this engine has derived), importance-reweights the nearest donors with
        the §7 noise-model likelihood ratio (weight ``∝ (1 − ψ)^x`` for ``x``
        violated target preferences) and serves the best adapted pool when its
        effective sample size clears ``min_ess_fraction × num_samples`` —
        skipping the sampling entirely.  Requires ``pool_cache_size > 0``
        (donors live in the repository).  Adapted pools are marked in their
        ``stats`` and carry distinct content digests; they are never mistaken
        for exact key-deterministic builds.
    partial_refill:
        ESS-deficit partial refill (incremental sampling): on a pool miss
        after feedback, instead of the all-or-nothing choice between §3.4
        hard maintenance and full resampling, reweight the stale pool's
        samples under the §7 noise model ψ, compute the Kish-ESS deficit
        against ``refill_min_ess_fraction × num_samples``, and draw only
        that many fresh key-deterministic samples.  Changes pool *content*
        (a reweighted-survivor mix rather than the maintained/fresh build),
        so it defaults off; the content is deterministic given the session
        history, and checkpoints carry a refill audit record so replay can
        detect tampering.  Requires a resolvable ψ (``refill_psi`` or the
        elicitation ``noise_psi``).
    refill_psi:
        Noise probability used by the partial-refill reweighting; ``None``
        falls back to the elicitation config's ``noise_psi``.
    refill_min_ess_fraction:
        Partial refill tops the reweighted survivors up until their Kish ESS
        reaches this fraction of ``num_samples`` (in ``(0, 1]``).
    catalog_backing:
        ``"materialized"`` (default) serves from the catalog as constructed.
        ``"mmap"`` ensures the engine serves from a memory-mapped columnar
        store: a catalog that is already mmap-backed is used as-is; a
        materialized one is written to a temporary columnar store at engine
        construction and reopened through ``np.memmap``.  Either way the
        engine's fill context then references the catalog by content digest
        (store path shipped, not arrays), so process-shard workers mmap the
        shared store instead of receiving catalog copies — results are
        bit-identical across backings.
    seed:
        Engine-level seed; all per-session seeds and per-key fill seeds
        derive from it.
    """

    elicitation: ElicitationConfig = field(default_factory=ElicitationConfig)
    max_active_sessions: int = 10_000
    session_ttl_seconds: Optional[float] = None
    pool_cache_size: int = 512
    pool_shards: int = 1
    pool_shard_backend: str = "inline"
    topk_cache_size: int = 2_048
    use_batch_sampler: bool = True
    maintain_on_miss: bool = True
    pool_adaptation: Optional[AdaptationConfig] = None
    partial_refill: bool = False
    refill_psi: Optional[float] = None
    refill_min_ess_fraction: float = 0.5
    catalog_backing: str = "materialized"
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.catalog_backing not in ("materialized", "mmap"):
            raise ValueError(
                f"catalog_backing must be 'materialized' or 'mmap', "
                f"got {self.catalog_backing!r}"
            )
        if self.max_active_sessions <= 0:
            raise ValueError(
                f"max_active_sessions must be > 0, got {self.max_active_sessions}"
            )
        if self.pool_cache_size < 0 or self.topk_cache_size < 0:
            raise ValueError("cache sizes must be >= 0")
        if self.pool_shards <= 0:
            raise ValueError(f"pool_shards must be > 0, got {self.pool_shards}")
        # Accepts "inline" / "process", each optionally suffixed ":N" to
        # override the worker count; unknown names raise here with the
        # valid list.
        parse_shard_backend(self.pool_shard_backend)
        if self.pool_adaptation is not None and self.pool_cache_size == 0:
            raise ValueError(
                "pool_adaptation requires pool_cache_size > 0 "
                "(donor pools are found among live repository keys)"
            )
        if not 0.0 < self.refill_min_ess_fraction <= 1.0:
            raise ValueError(
                f"refill_min_ess_fraction must be in (0, 1], "
                f"got {self.refill_min_ess_fraction}"
            )
        if self.refill_psi is not None and not 0.0 <= self.refill_psi <= 1.0:
            raise ValueError(
                f"refill_psi must be in [0, 1] or None, got {self.refill_psi}"
            )
        if self.partial_refill and self.refill_noise_psi is None:
            raise ValueError(
                "partial_refill requires a noise model: set refill_psi or "
                "the elicitation config's noise_psi"
            )

    @property
    def sharing_enabled(self) -> bool:
        """Whether any engine-level pool management is active."""
        return (
            self.pool_cache_size > 0
            or self.topk_cache_size > 0
            or self.use_batch_sampler
        )

    @property
    def refill_noise_psi(self) -> Optional[float]:
        """The ψ partial refill reweights under (explicit, else elicitation's)."""
        return (
            self.refill_psi
            if self.refill_psi is not None
            else self.elicitation.noise_psi
        )


@dataclass
class EngineStats:
    """A point-in-time view of the engine's counters."""

    sessions_created: int
    sessions_active: int
    sessions_expired: int
    sessions_swapped_out: int
    sessions_restored: int
    swap_writes_skipped: int
    rounds_served: int
    feedback_events: int
    pools_sampled: int
    pools_maintained: int
    pools_adapted: int
    pools_warmed: int
    topk_batched_pools: int
    pool_cache: dict
    pool_repository: dict
    topk_cache: dict
    adaptation: dict = field(default_factory=dict)
    sessions_replayed: int = 0
    eventlog: dict = field(default_factory=dict)
    #: Total pools the engine built (sampled + maintained + adapted +
    #: partial-refilled); warm-start pins fill through the repository
    #: directly and are counted by ``pools_warmed`` alone.
    pools_built: int = 0
    pools_partial_refilled: int = 0

    def as_dict(self) -> dict:
        """Every field as plain data; nested dicts are copies."""
        return asdict(self)


class RecommendationEngine:
    """Serve many elicitation sessions over one catalog with shared caches.

    Parameters
    ----------
    catalog / profile:
        The item catalog and aggregate profile every session recommends over.
    config:
        Engine configuration (defaults are reasonable for tests and demos).
    store:
        Optional durable :class:`SessionStore` for swap-out and restarts;
        reference snapshots persist their pool payloads to its pool table.
    predicates:
        Optional package-schema predicates applied by every session.
    catalog_predicate:
        Optional item-eligibility predicate
        (:class:`repro.data.columnar.CatalogPredicate`) pushed down into
        every searcher the engine builds: the sorted-list walks and random
        draws of every session see only eligible items.
    clock:
        Monotonic time source used for TTL/LRU bookkeeping (injectable).
    telemetry:
        Optional :class:`~repro.obs.Telemetry` facade.  When given, the
        engine threads request traces through serving (dispatcher admission
        → recommend → pool provisioning → batch search → event-log append).
        The default is a disabled instance whose spans are one shared null
        context; its registry still counts requests, round latencies and
        alarms.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        profile: AggregateProfile,
        config: Optional[EngineConfig] = None,
        store: Optional[SessionStore] = None,
        predicates: Optional[PredicateSet] = None,
        clock: Callable[[], float] = time.monotonic,
        catalog_predicate=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        # catalog_backing="mmap": serve from a memory-mapped columnar store.
        # A catalog that already is one is used as-is; a materialized one is
        # written out once (temporary store, lives as long as the engine) and
        # reopened through np.memmap — the data and sort orders the sessions
        # consume are then shared pages, not per-engine arrays.
        self._catalog_store_tmp: Optional[tempfile.TemporaryDirectory] = None
        if (
            self.config.catalog_backing == "mmap"
            and catalog.backing_kind != "mmap"
        ):
            from repro.data.columnar import open_catalog_store, write_catalog_store

            self._catalog_store_tmp = tempfile.TemporaryDirectory(
                prefix="repro-catalog-"
            )
            write_catalog_store(catalog, self._catalog_store_tmp.name)
            catalog = open_catalog_store(self._catalog_store_tmp.name)
        self.catalog = catalog
        self.profile = profile
        self.store = store
        self.catalog_predicate = catalog_predicate
        self.clock = clock
        # Log-backed store: sessions persist as events, restore is replay.
        self.event_log: Optional[EventLogStore] = (
            store if isinstance(store, EventLogStore) else None
        )
        if self.event_log is not None and not self.config.sharing_enabled:
            # With sharing disabled each session samples its pool from its own
            # RNG, so replaying clicks without re-running those sampling draws
            # would desynchronise the RNG stream — replay restore requires the
            # provider path, where pool fills never touch session randomness.
            raise ValueError(
                "EventLogStore requires pool sharing "
                "(pool_cache_size > 0, topk_cache_size > 0, or "
                "use_batch_sampler): replay restore relies on pool fills "
                "that do not consume session RNG"
            )
        elicitation = self.config.elicitation
        self._seed_rng = ensure_rng(self.config.seed)
        # One prior shared by every session: pools are only interchangeable
        # across sessions when they target the same prior distribution.
        self.prior = GaussianMixture.default_prior(
            catalog.num_features,
            elicitation.num_prior_components,
            elicitation.prior_spread,
            rng=self._seed_rng,
        )
        # Root of every per-key fill seed.  With a seeded engine this is the
        # seed itself, so fills are reproducible across engine instances (the
        # basis of restore-by-reference); an unseeded engine draws a random
        # root once, keeping its fills internally consistent but private.
        self._fill_seed_root = (
            self.config.seed
            if self.config.seed is not None
            else int(self._seed_rng.integers(0, 2**63 - 1))
        )
        # The engine's shareable fill state as plain data, registered in the
        # process-local context registry.  Inline fills resolve it right
        # back out of the registry; a process backend ships it to its
        # workers once via their initializer.  Registration is idempotent by
        # content, so many engines over one prior share one entry.
        if self.catalog.backing_kind == "mmap" and self.catalog.store_path:
            # Reference the catalog by content: workers resolve the digest to
            # the store path and mmap it locally — no arrays over the pipe.
            self._fill_context = FillContext(
                prior=PriorSpec.from_mixture(self.prior),
                catalog_path=self.catalog.store_path,
                catalog_digest=self.catalog.content_digest(),
            )
        else:
            self._fill_context = FillContext(
                prior=PriorSpec.from_mixture(self.prior)
            )
        self._fill_context_digest = register_fill_context(self._fill_context)
        self.pool_repository = ShardedPoolRepository(
            spec_factory=self._fill_spec,
            num_shards=self.config.pool_shards,
            capacity=self.config.pool_cache_size,
            backend=build_shard_backend(
                self.config.pool_shard_backend, self.config.pool_shards
            ),
        )
        self.pool_repository.attach_telemetry(self.telemetry)
        if self.event_log is not None:
            self.event_log.attach_telemetry(self.telemetry)
        # Approximate pool reuse (optional): the adapter serves repository
        # misses from reweighted near-miss donor pools; the similarity index
        # it consults is fed by _pool_key, the single choke point every layer
        # derives keys through.
        self.pool_adapter: Optional[PoolAdapter] = None
        if self.config.pool_adaptation is not None:
            self.pool_adapter = PoolAdapter(
                self.pool_repository,
                ConstraintSimilarityIndex(),
                self.config.pool_adaptation,
                telemetry=self.telemetry,
            )
        self._topk_cache = LruCache(self.config.topk_cache_size)
        # The one batch searcher (and evaluator) of the engine: every
        # session ranks with it too, so in the exact default configuration
        # a ranked list the engine computes is the one the session would
        # have computed itself (see _rank for capped walks).
        self.evaluator = PackageEvaluator(
            catalog, profile, elicitation.max_package_size
        )
        self.batch_searcher = BatchTopKPackageSearcher(
            self.evaluator,
            predicates=predicates,
            beam_width=elicitation.search_beam_width,
            max_items_accessed=elicitation.search_items_cap,
            catalog_predicate=catalog_predicate,
        )
        self.sessions = SessionManager(
            max_active=self.config.max_active_sessions,
            ttl_seconds=self.config.session_ttl_seconds,
            store=store,
            snapshot_fn=self._swap_out_snapshot if store is not None else None,
            restore_fn=self._restore_entry if store is not None else None,
            touch_fn=self._touch_record if self.event_log is not None else None,
            clock=clock,
        )
        self._session_counter = 0
        self._pool_build_counter = 0
        self.sessions_created = 0
        self.sessions_replayed = 0
        self.rounds_served = 0
        self.feedback_events = 0
        self.pools_sampled = 0
        self.pools_maintained = 0
        self.pools_adapted = 0
        self.pools_warmed = 0
        self.pools_built = 0
        self.pools_partial_refilled = 0
        self.topk_batched_pools = 0
        # Hot-path instruments, resolved once (registry lookups take a lock).
        registry = self.telemetry.registry
        self._round_latency = registry.histogram(
            "repro_round_latency_seconds", "Per-round serve latency"
        )
        self._requests_total = registry.counter(
            "repro_requests_total", "Serving API calls", labels=("api",)
        )

    def close_repository(self) -> None:
        """Release the pool repository's shard backend (worker processes, if any)."""
        self.pool_repository.close()

    # =============================================================== lifecycle
    def create_session(
        self,
        session_id: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> str:
        """Open a new elicitation session and return its id.

        ``seed`` fixes the session's private randomness (exploration packages,
        per-session sampler); by default one is derived from the engine seed.
        """
        self.sessions.sweep_expired()
        if session_id is None:
            # Skip over ids taken by restored/explicitly-named sessions.
            while True:
                self._session_counter += 1
                session_id = f"sess-{self._session_counter:06d}"
                if session_id not in self.sessions:
                    break
        elif session_id in self.sessions:
            raise ValueError(f"session id {session_id!r} already exists")
        if seed is None:
            seed = int(self._seed_rng.integers(0, 2**31 - 1))
        entry = self._new_entry(session_id, int(seed))
        if self.event_log is not None:
            # Logged before the session can serve or be evicted: the created
            # event (and its seed) is everything replay needs to start from.
            self.event_log.log_session_created(
                session_id, seed=int(seed), created_at=entry.created_at
            )
        self.sessions.add(entry)
        self.sessions_created += 1
        return session_id

    def _new_entry(self, session_id: str, seed: int) -> SessionEntry:
        # The session ranks with the engine's searcher and evaluator under
        # the engine's configuration: one set of per-catalog objects, however
        # many sessions are live.  Only the seed is the session's own.
        recommender = PackageRecommender(
            self.catalog,
            self.profile,
            config=self.config.elicitation,
            prior=self.prior,
            catalog_predicate=self.catalog_predicate,
            batch_searcher=self.batch_searcher,
            seed=seed,
        )
        now = self.clock()
        entry = SessionEntry(
            session_id=session_id,
            recommender=recommender,
            seed=seed,
            created_at=now,
            last_access=now,
        )
        if self.config.sharing_enabled:
            recommender.set_pool_provider(
                lambda *_request, _entry=entry: self._provide_pool(_entry)
            )
        return entry

    def close(self, session_id: str) -> bool:
        """Terminate a session (active or swapped out); returns whether it existed."""
        return self.sessions.remove(session_id)

    def _acquire(self, session_id: str) -> SessionEntry:
        # Acquire first so an expired *target* raises SessionExpiredError
        # (a prior sweep would degrade it to SessionNotFoundError), then
        # opportunistically expire the rest of the table.
        entry = self.sessions.acquire(session_id)
        self.sessions.sweep_expired()
        return entry

    # ============================================================ pool sourcing
    def _pool_key(self, constraints: ConstraintSet, count: int) -> str:
        key = pool_key(constraints, count)
        if self.pool_adapter is not None:
            # Every key the engine ever derives is registered, so the
            # similarity index can decode live repository keys back to
            # constraint structure when hunting donors.
            self.pool_adapter.index.register(key, constraints, count)
        return key

    def _fill_spec(
        self, key: str, constraints: ConstraintSet, count: int
    ) -> FillSpec:
        """The picklable description of one pool fill (the repository seam).

        This is the repository's determinism contract in data form: the spec
        carries the *derived* RNG seed (engine seed root + key) and a digest
        reference to the engine's registered fill context, so a pool built
        for ``key`` is the same array no matter which shard builds it, in
        what order, under which backend, or in which process — sharded and
        unsharded engines are bit-identical, re-fills after eviction
        reproduce the evicted pool, and restore-by-reference can rebuild a
        missing pool exactly (for pools that were built fresh; maintained
        pools depend on their sessions' history and are persisted, not
        re-derived).
        """
        elicitation = self.config.elicitation
        return FillSpec.for_fill(
            key,
            constraints,
            count,
            sampler=(
                "batch" if self.config.use_batch_sampler else elicitation.sampler
            ),
            seed_root=self._fill_seed_root,
            context_digest=self._fill_context_digest,
            noise_psi=elicitation.noise_psi,
        )

    def _stamp_pool(self, pool: SamplePool) -> SamplePool:
        """Tag a freshly built pool with a unique build generation.

        The top-k cache keys on (pool key, build); a pool evicted from the
        repository and later rebuilt gets a new generation, so stale top-k
        results computed from the evicted pool can never be served against
        the rebuilt one.  The pool's arrays become read-only, so its
        :meth:`~repro.sampling.base.SamplePool.content_digest` is computed
        once however often sessions holding it are checkpointed.
        """
        self._pool_build_counter += 1
        pool.stats["pool_build"] = self._pool_build_counter
        pool.samples.flags.writeable = False
        pool.weights.flags.writeable = False
        return pool

    def _provide_pool(self, entry: SessionEntry) -> SamplePool:
        """The recommender's pool provider: provisioning for one session.

        Serving provisions pools before it asks the recommender for them, so
        this hook only runs for pools needed outside serving: a snapshot
        materialising a pending pool, or a direct read of a session's
        recommender.
        """
        self._provision([entry])
        return entry.recommender.pending_pool

    def _provision(self, entries: Sequence[SessionEntry]) -> None:
        """Stage 2: install the pool of every session in ``entries``.

        Each session looks its pool up in the repository once.  With pool
        sharing (``pool_cache_size > 0``) the misses group by key: the first
        session counts the miss and the build, and a session joining that
        build looks the pool up once it is stored, so it counts a hit.  The
        per-user baseline (``pool_cache_size == 0``) builds every session's
        pool on its own, each with its own fill.
        """
        shared = self.config.pool_cache_size > 0
        builds: Dict[str, _PoolBuild] = {}  # by pool key, or session if unshared
        with self.telemetry.span("engine.provision", sessions=len(entries)):
            for entry in entries:
                recommender = entry.recommender
                constraints = recommender.constraints
                count = recommender.config.num_samples
                key = self._pool_key(constraints, count)
                entry.pool_key = key
                build = builds.get(key) if shared else None
                if build is not None:
                    build.sessions.append(entry)
                    if build.stale is None:
                        build.stale = recommender.stale_pool
                    continue
                pool = self.pool_repository.get(key)
                if pool is not None:
                    recommender.set_pool(pool)
                    continue
                build = _PoolBuild(
                    key, constraints, count, recommender.stale_pool, [entry]
                )
                builds[key if shared else entry.session_id] = build
            if not shared:
                for build in builds.values():
                    self._make_pools([build])
            elif builds:
                self._make_pools(list(builds.values()))

    def _make_pools(self, builds: Sequence[_PoolBuild]) -> None:
        """Build missing pools with one fill batch and hand each to its sessions.

        Each pool takes the first rung of the reuse ladder that applies:
        an adapted near-miss donor, a partial refill of the stale pool, §3.4
        maintenance of it, or a fresh fill.  The rungs' fill deficits go to
        the repository as one ``fill_many`` batch; fills are key-seeded, so
        batching never changes a pool.  The build paths annotate the open
        ``engine.provision`` span.
        """
        plans = []  # (build, path, surviving or adapted pool, fill deficit)
        for build in builds:
            self.pools_built += 1
            adapted = self._adapt_pool(build.key, build.constraints, build.count)
            if adapted is not None:
                plans.append((build, "adapted", adapted, 0))
                continue
            refill = self._partial_refill_plan(
                build.constraints, build.count, build.stale
            )
            if refill is not None:
                plans.append((build, "refill", *refill))
                continue
            surviving, deficit = self._maintenance_split(
                build.constraints, build.count, build.stale
            )
            path = "sampled" if surviving is None else "maintained"
            plans.append((build, path, surviving, deficit))
        fresh = self.pool_repository.fill_many(
            [
                PoolFillJob(build.key, build.constraints, deficit)
                for build, _path, _pool, deficit in plans
                if deficit > 0
            ]
        )
        for key, pool in fresh.items():
            self._record_fill_span(key, pool)
        for build, path, pool, deficit in plans:
            filled = fresh.get(build.key)
            if path == "refill":
                pool = self._finish_partial_refill(
                    build.key, pool, filled, build.count, deficit
                )
            elif path == "maintained":
                self.pools_maintained += 1
                if filled is not None:
                    pool = pool.concatenate(filled)
            elif path == "sampled":
                self.pools_sampled += 1
                pool = filled
            pool = self._stamp_pool(pool)
            self.pool_repository.put(build.key, pool)
            for index, entry in enumerate(build.sessions):
                if index:
                    # A session sharing the build makes its one lookup now,
                    # right after the put, so it hits.
                    self.pool_repository.get(build.key)
                entry.recommender.set_pool(pool)
        self.telemetry.annotate(**Counter(path for _build, path, _p, _d in plans))

    def _record_fill_span(self, key: str, pool: SamplePool) -> None:
        """Reconstruct a finished fill as a child span of the open trace.

        Fills execute wherever the shard backend put them — inline or in a
        worker process — so they cannot open spans themselves;
        the engine rebuilds the span from the stats the fill returned
        (``fill_seconds``, and ``fill_worker_pid`` for process fills).  A
        fill that fell back to MCMC carries the rung that seeded its chain
        (``chain_seed``): an ``"apex"`` pool may be copies of one point.
        """
        attrs = {"key": key, "count": pool.size}
        for name in ("sampler", "chain_seed"):
            value = pool.stats.get(name)
            if value is not None:
                attrs[name] = value
        worker_pid = pool.stats.get("fill_worker_pid")
        if worker_pid is not None:
            attrs["worker_pid"] = int(worker_pid)
        self.telemetry.record_child(
            "pool.fill", float(pool.stats.get("fill_seconds", 0.0)), **attrs
        )

    def _annotate_search(self) -> None:
        """Attach the batch searcher's last walk statistics to the open span.

        Covers the measurement the self-tuning roadmap item needs: rows vs
        deduplicated rows (cross-pool dedup rate) and items accessed by the
        sorted-list walk.
        """
        stats = self.batch_searcher.last_search_stats
        if stats:
            self.telemetry.annotate(**stats)

    def _partial_refill_plan(
        self,
        constraints: ConstraintSet,
        count: int,
        stale: Optional[SamplePool],
    ):
        """ψ-reweighted survivors + ESS fill deficit, or ``None`` for the old path.

        The hybrid of §3.4 maintenance and §7 reweighting: keep *every* stale
        sample at its noise-model importance weight ``(1 − ψ)^x`` and sample
        only the fresh draws needed to lift the pool's Kish ESS back over
        ``refill_min_ess_fraction × count``.  Falls back (returns ``None``)
        when disabled, when there is no stale pool to refill, or when no
        stale mass survives reweighting (a from-scratch fill is then both
        cheaper and statistically necessary).
        """
        if not self.config.partial_refill:
            return None
        psi = self.config.refill_noise_psi
        if psi is None or stale is None or stale.size == 0:
            return None
        if constraints.is_empty():
            return None
        surviving, deficit = partial_refill_split(
            stale, constraints, psi, count, self.config.refill_min_ess_fraction
        )
        if surviving is None:
            return None
        return surviving, deficit

    def _finish_partial_refill(
        self,
        key: str,
        surviving: SamplePool,
        fresh: Optional[SamplePool],
        count: int,
        deficit: int,
    ) -> SamplePool:
        """Merge reweighted survivors with the deficit fill, digest-stably.

        Both sides are scaled to mean weight 1 before merging — the scale the
        ESS-deficit arithmetic assumed (survivor importance weights are only
        defined up to a constant; fresh draws from the target posterior carry
        unit weight) — so the merged pool's Kish ESS is the one the deficit
        was solved for.  Oversized merges are residual-resampled back to
        ``count`` with a key-derived RNG, keeping the content a deterministic
        function of (engine seed, pool key, session history).
        """
        self.pools_partial_refilled += 1
        pool = self._unit_mean_weights(surviving)
        if fresh is not None:
            pool = pool.concatenate(self._unit_mean_weights(fresh))
        cap = int(np.ceil(REFILL_MAX_POOL_MULTIPLE * count))
        if pool.size > cap:
            pool = residual_resample(pool, count, rng=self._refill_rng(key))
        pool.stats["partial_refill"] = {
            "deficit": int(deficit),
            "survivors": int(surviving.size),
        }
        return pool

    @staticmethod
    def _unit_mean_weights(pool: SamplePool) -> SamplePool:
        """The same pool with weights scaled to mean 1 (ESS-invariant)."""
        total = float(np.sum(pool.weights))
        if total <= 0.0:
            return pool
        return SamplePool(
            pool.samples, pool.weights * (pool.size / total), dict(pool.stats)
        )

    def _refill_rng(self, key: str) -> np.random.Generator:
        """Key-derived RNG for refill downsampling (same discipline as fills)."""
        digest = hashlib.blake2b(
            f"pool-refill:{self._fill_seed_root}:{key}".encode(), digest_size=16
        ).digest()
        return np.random.default_rng(int.from_bytes(digest, "big"))

    def _adapt_pool(
        self, key: str, constraints: ConstraintSet, count: int
    ) -> Optional[SamplePool]:
        """Approximate pool reuse: reweight a near-miss donor instead of filling.

        Tried *before* §3.4 maintenance: where maintenance still samples the
        deficit, a successfully adapted pool skips sampling entirely (the
        ESS gate decides whether that trade is statistically safe).  Returns
        ``None`` when adaptation is disabled, no donor qualifies, or every
        candidate's effective sample size falls below the configured floor.
        """
        if self.pool_adapter is None:
            return None
        pool = self.pool_adapter.adapt(key, constraints, count)
        if pool is not None:
            self.pools_adapted += 1
        return pool

    def _maintenance_split(
        self,
        constraints: ConstraintSet,
        count: int,
        stale: Optional[SamplePool],
    ):
        """(surviving samples, deficit) of the §3.4 maintenance path, if usable."""
        if stale is None or not self.config.maintain_on_miss or stale.size == 0:
            return None, count
        surviving = stale.subset(constraints.valid_mask(stale.samples))
        if surviving.size > count:
            surviving = surviving.subset(np.arange(count))
        return surviving, count - surviving.size

    # ================================================================ warm start
    def warm_start(self, first_clicks: Optional[int] = None) -> WarmStartReport:
        """Precompute and pin the always-hot pools so cold sessions never sample.

        Pins the empty-prefix pool, parks its ranked top-k list in the top-k
        cache, and pins the pools of the top ``first_clicks`` first-click
        choices (default: the elicitation ``k``) — see
        :class:`~repro.service.pool_repository.WarmStartPlanner`.
        """
        report = WarmStartPlanner(self, first_clicks=first_clicks).warm()
        return report

    def warm_start_from_log(
        self, store: Optional[EventLogStore] = None, top_n: int = 8
    ):
        """Warm the most frequently *observed* click-prefix pools from a log.

        Mines the event log's feedback histories for the constraint-set
        prefixes real sessions passed through, frequency-ranks them, and
        fills + pins the pools of the top ``top_n`` — reaching depth-2+
        prefixes that exhaustive first-click enumeration cannot (observed
        prefixes sidestep the combinatorics).  ``store`` defaults to this
        engine's own event-log store.
        """
        if store is None:
            store = self.event_log
        if store is None:
            raise ValueError(
                "warm_start_from_log requires an EventLogStore (pass one, or "
                "construct the engine with one as its session store)"
            )
        return WarmStartPlanner(self).warm_from_log(store, top_n=top_n)

    # ================================================================ serving
    def recommend(self, session_id: str) -> RecommendationRound:
        """Serve one recommendation round for a session."""
        self._requests_total.labels(api="recommend").inc()
        with self.telemetry.span("engine.recommend", session_id=session_id):
            return self._serve([session_id])[0]

    def recommend_many(
        self, session_ids: Sequence[str]
    ) -> List[RecommendationRound]:
        """Serve one round for each of many sessions in one pipeline pass.

        Sessions needing the same pool share one build, every missing pool
        fills in one repository batch, and every uncached ranked list comes
        from one shared walk — the rounds are the ones :meth:`recommend`
        would serve session by session.
        """
        self._requests_total.labels(api="recommend_many").inc()
        with self.telemetry.span(
            "engine.recommend_many", sessions=len(session_ids)
        ):
            return self._serve(session_ids)

    def _serve(self, session_ids: Sequence[str]) -> List[RecommendationRound]:
        """The serve pipeline: acquire → provision → search → serve and log."""
        try:
            entries: List[SessionEntry] = []
            for session_id in session_ids:
                # Pin before acquiring: the acquire itself may restore from
                # the store and enforce capacity, and neither this session
                # nor the previously acquired ones may be swapped out before
                # their rounds are served.
                self.sessions.pin(session_id)
                entries.append(self.sessions.acquire(session_id))
            if self.config.sharing_enabled:
                # Keyed by id: a session listed twice needs one pool.
                pending = {
                    entry.session_id: entry
                    for entry in entries
                    if entry.recommender.pending_pool is None
                }
                if pending:
                    self._provision(list(pending.values()))
            ranked = self._search(entries)
            return [
                self._serve_round(entry, ranked.get(index))
                for index, entry in enumerate(entries)
            ]
        finally:
            self.sessions.unpin(session_ids)
            self.sessions.sweep_expired()

    def _search(self, entries: Sequence[SessionEntry]) -> Dict[int, List[Package]]:
        """Stage 3: the ranked lists the engine answers, by position in ``entries``.

        The engine answers a session that has a pool key when both caches
        are on; every other session ranks its own pool while it is served.
        Each answered session looks its list up in the top-k cache once.
        The missing lists are computed once per distinct cache key, in one
        ``search.topk`` span per ``k``: the first session counts the miss,
        and a session sharing the list looks it up once it is stored, so it
        counts a hit.
        """
        ranked: Dict[int, List[Package]] = {}
        # A cache key is (pool key, pool build, k, semantics): the pool key
        # names one pool only while pools are shared, and the build guards
        # against lists computed from a pool that was evicted and rebuilt.
        if self.config.topk_cache_size == 0 or self.config.pool_cache_size == 0:
            return ranked
        missing: Dict[tuple, List[int]] = {}
        for index, entry in enumerate(entries):
            if entry.pool_key is None:
                continue
            key = self._topk_key(entry, entry.recommender.pending_pool)
            if key in missing:
                missing[key].append(index)
                continue
            cached = self._topk_cache.get(key)
            if cached is None:
                missing[key] = [index]
            else:
                ranked[index] = list(cached)
        by_k: Dict[int, List[tuple]] = {}
        for key in missing:
            by_k.setdefault(key[2], []).append(key)
        for k, keys in by_k.items():
            with self.telemetry.span("search.topk", pools=len(keys), k=k):
                lists = self._rank([entries[missing[key][0]] for key in keys], k)
            for key, ranked_list in zip(keys, lists):
                self._topk_cache.put(key, tuple(ranked_list))
                first, *sharing = missing[key]
                ranked[first] = ranked_list
                for index in sharing:
                    ranked[index] = list(self._topk_cache.get(key))
        return ranked

    def _rank(self, entries: Sequence[SessionEntry], k: int) -> List[List[Package]]:
        """The ranked top-k list of each entry's pool, in one shared walk.

        The walk searches exactly the rows ``current_top_k`` would and ranks
        them the same way, so for exact searches (no ``search_beam_width`` or
        ``search_items_cap``, the defaults) each list is the one the session
        would compute itself.
        Bounded-work searches do not have that property: the walk shares its
        candidates across every pool of the call, so a vector stopped by
        ``search_items_cap`` ranks packages that other pools' vectors
        discovered, and its list depends on which sessions it was batched
        with (``recommend_many`` and serial ``recommend`` can differ).
        """
        pools = [entry.recommender.pending_pool for entry in entries]
        rows = [
            entry.recommender.search_sample_indices(pool)
            for entry, pool in zip(entries, pools)
        ]
        results = self.batch_searcher.search_pools(
            [pool.samples[indices] for pool, indices in zip(pools, rows)],
            k,
        )
        self._annotate_search()
        self.topk_batched_pools += len(entries)
        return [
            rank_from_samples(
                per_sample,
                k,
                entry.recommender.config.semantics,
                sample_weights=pool.weights[indices],
            )
            for entry, pool, indices, per_sample in zip(entries, pools, rows, results)
        ]

    def _serve_round(
        self, entry: SessionEntry, recommended: Optional[List[Package]]
    ) -> RecommendationRound:
        """Stage 4: present one session's round and append it to the log."""
        start = time.perf_counter()
        with self.telemetry.span(
            "engine.serve_round",
            session_id=entry.session_id,
            pool_key=entry.pool_key,
        ):
            round_ = entry.recommender.recommend(recommended=recommended)
            entry.rounds_served += 1
            entry.dirty = True
            self.rounds_served += 1
            if self.event_log is not None:
                with self.telemetry.span("eventlog.append", kind="round_served"):
                    self.event_log.log_round_served(
                        entry.session_id,
                        recommended=[
                            [int(i) for i in p.items] for p in round_.recommended
                        ],
                        random_packages=[
                            [int(i) for i in p.items]
                            for p in round_.random_packages
                        ],
                    )
        self._round_latency.observe(time.perf_counter() - start)
        return round_

    def feedback(
        self, session_id: str, clicked: Union[int, Package]
    ) -> int:
        """Record a click for a session; returns the preferences added.

        ``clicked`` is either the package object or its index into the most
        recently served round's ``presented`` list.
        """
        entry = self._acquire(session_id)
        recommender = entry.recommender
        round_ = recommender.last_round
        if round_ is None:
            raise ValueError(
                f"session {session_id!r} has no served round to give feedback on"
            )
        if isinstance(clicked, (int, np.integer)):
            presented = round_.presented
            index = int(clicked)
            if not 0 <= index < len(presented):
                raise ValueError(
                    f"clicked index {index} out of range for "
                    f"{len(presented)} presented packages"
                )
            clicked = presented[index]
        added = recommender.feedback(clicked)
        entry.feedback_events += 1
        entry.dirty = True
        self.feedback_events += 1
        if self.event_log is not None:
            self.event_log.log_feedback(
                session_id, clicked=[int(i) for i in clicked.items]
            )
        return added

    def _topk_key_for(
        self, pool_key: Optional[str], pool: SamplePool, config: ElicitationConfig
    ):
        """Top-k cache key: pool identity (key + build) plus query shape."""
        build = pool.stats.get("pool_build")
        return (pool_key, build, config.k, config.semantics.value)

    def _topk_key(self, entry: SessionEntry, pool: SamplePool):
        return self._topk_key_for(entry.pool_key, pool, entry.recommender.config)

    def fill_shard_plan(self, session_ids: Sequence[str]) -> Dict[str, int]:
        """Which shard owns each session's next pool fill.

        Returns ``{session_id: shard_index}`` for every *pool-missing*
        session in ``session_ids``: its next round's pool key is absent from
        the repository, so serving it will trigger a fill on the owning
        shard.  Sessions whose pool is already live (or pending) and
        sessions not in memory (swapped out — planning must not force a
        restore) are omitted.  A single-shard repository (the default) has
        nothing to group, so its plan is always empty.

        Purely advisory and side-effect free on session state; serving does
        not consult it, because
        :meth:`~repro.service.pool_repository.ShardedPoolRepository.fill_many`
        groups each batch of fills by shard whatever order it arrives in.
        """
        plan: Dict[str, int] = {}
        if len(self.pool_repository.shards) <= 1:
            return plan
        for session_id in session_ids:
            entry = self.sessions.peek(session_id)
            if entry is None:
                continue
            recommender = entry.recommender
            if recommender.pending_pool is not None:
                continue
            key = pool_key(recommender.constraints, recommender.config.num_samples)
            if key in self.pool_repository:
                continue
            plan[session_id] = self.pool_repository.shard_for(key).index
        return plan

    # ======================================================= snapshot / restore
    def snapshot(self, session_id: str, embed_pool: bool = True) -> dict:
        """A JSON-serialisable snapshot of a session's full state.

        With ``embed_pool=True`` (default) the payload carries the full
        sample pool and restoring it — in this or a fresh engine over the
        same catalog and configuration — reproduces the session exactly:
        same pending pool, same RNG stream, same next recommendation.

        With ``embed_pool=False`` the payload references the pool by its
        repository key only (snapshot compaction: thousands of sessions
        sharing a pool persist it once).  The pool payload is written to the
        configured store's pool table; on restore the pool is resolved from
        the repository, then the store, and only re-sampled (deterministically
        by key) when both miss.
        """
        entry = self._acquire(session_id)
        return self._snapshot_entry(entry, embed_pool=embed_pool)

    def _swap_out_snapshot(self, entry: SessionEntry) -> dict:
        """SessionManager's snapshot_fn: swap-outs use compact pool references.

        With an event-log store, a replayable session's "snapshot" is just a
        checkpoint event — ``(log offset, pool reference)`` — because its
        whole history is already in the log.  Sessions imported from a blob
        (``entry.replayable`` False) keep writing full blobs: the log never
        saw their history.
        """
        if self.event_log is not None and entry.replayable:
            return self._checkpoint_entry(entry)
        return self._snapshot_entry(entry, embed_pool=False)

    def _touch_record(self, entry: SessionEntry) -> None:
        """SessionManager's touch_fn: clean swap-outs log true last access."""
        self.event_log.log_touch(entry.session_id, last_access=entry.last_access)

    def _pool_store_key(self, key: str, digest: str) -> str:
        """Pool-table key: fingerprint key plus content digest.

        Content-addressing makes the store's skip-if-exists deduplication
        sound — two different builds of one fingerprint get two entries,
        while the thousands of sessions sharing one build still share one.
        """
        return f"{key}#{digest}"

    def _pool_payload(
        self, entry: SessionEntry, pool: SamplePool, embed_pool: bool
    ) -> dict:
        """A snapshot/checkpoint pool payload: embedded floats or a reference."""
        if embed_pool or entry.pool_key is None:
            # Sessions outside the shared-pool world (sharing disabled, or a
            # pool installed without a key) cannot be resolved by reference.
            return {
                "key": entry.pool_key,
                "samples": pool.samples.tolist(),
                "weights": pool.weights.tolist(),
            }
        # A fingerprint key does *not* uniquely identify pool content: a
        # maintained pool depends on its session's history, and an evicted
        # key re-fills to the fresh key-deterministic build.  Reference
        # payloads therefore carry the content digest too, so restore can
        # tell whether whatever sits under the key is the pool captured.
        pool_digest = pool.content_digest()
        self._persist_pool(self._pool_store_key(entry.pool_key, pool_digest), pool)
        payload = {"key": entry.pool_key, "digest": pool_digest}
        refill = pool.stats.get("partial_refill")
        if refill is not None:
            # Deficit-fill audit record: a partial-refill pool's content
            # depends on session history (the reweighted survivors), so it
            # can never be silently re-derived from the key alone.  Restore
            # verifies the resolved pool against this record and raises
            # ReplayDivergenceError on tampering or loss.
            payload["refill"] = {
                "deficit": int(refill.get("deficit", 0)),
                "survivors": int(refill.get("survivors", 0)),
                "size": int(pool.size),
            }
        return payload

    def _checkpoint_entry(self, entry: SessionEntry) -> dict:
        """The event-log checkpoint of a replayable session.

        No preferences, no RNG state, no last round: all of that replays
        from the log.  What cannot be replayed cheaply is the session's
        *pool* (a maintained pool depends on history the §3.4 ladder would
        have to re-walk), so the checkpoint carries its content-addressed
        reference and restore reattaches the exact build at the
        checkpoint's position in the event stream.

        The checkpoint builds nothing.  A session clicked since its last
        pool has that pool parked as stale and its next one pending; the
        checkpoint then references the stale pool, marked ``pending``, and
        restore parks it as stale again, so the next round builds the pool
        exactly as it would have without the swap-out.  A session that
        never had a pool checkpoints ``"pool": None``.
        """
        recommender = entry.recommender
        pool = recommender.pending_pool
        pool_payload = None
        if pool is not None:
            pool_payload = self._pool_payload(entry, pool, embed_pool=False)
        elif recommender.stale_pool is not None:
            pool_payload = self._pool_payload(
                entry, recommender.stale_pool, embed_pool=False
            )
            pool_payload["pending"] = True
        return {
            "kind": "eventlog-checkpoint",
            "session_id": entry.session_id,
            "seed": entry.seed,
            "created_at": entry.created_at,
            "rounds_served": entry.rounds_served,
            "feedback_events": entry.feedback_events,
            "pool": pool_payload,
        }

    def _snapshot_entry(self, entry: SessionEntry, embed_pool: bool = True) -> dict:
        recommender = entry.recommender
        # Materialise the pending pool first: after feedback the pool is
        # rebuilt lazily, and a snapshot blob carries no stale pool to
        # rebuild it from, so without it the payload could not reproduce
        # the next recommendation.  The public snapshot and blob swap-outs
        # therefore pay one pool build for a just-fed session; event-log
        # checkpoints (_checkpoint_entry) reference the stale pool instead.
        pool = recommender.sample_pool()
        last_round = recommender.last_round
        pool_payload = self._pool_payload(entry, pool, embed_pool)
        return {
            "version": SNAPSHOT_VERSION,
            "session_id": entry.session_id,
            "seed": entry.seed,
            "created_at": entry.created_at,
            "rounds_served": entry.rounds_served,
            "feedback_events": entry.feedback_events,
            "rounds_presented": recommender.rounds_presented,
            "clicks_received": recommender.clicks_received,
            "preferences": [
                {
                    "preferred": list(p.preferred.items),
                    "other": list(p.other.items),
                    "preferred_vector": list(p.preferred_vector),
                    "other_vector": list(p.other_vector),
                }
                for p in recommender.preferences.preferences
            ],
            "last_round": (
                {
                    "recommended": [list(p.items) for p in last_round.recommended],
                    "random": [list(p.items) for p in last_round.random_packages],
                }
                if last_round is not None
                else None
            ),
            "rng_state": recommender.rng.bit_generator.state,
            "pool": pool_payload,
        }

    def _persist_pool(self, store_key: str, pool: SamplePool) -> None:
        """Write a pool payload to the store's pool table, once per content.

        ``store_key`` is content-addressed (:meth:`_pool_store_key`), so the
        existence probe — deliberately :meth:`SessionStore.has_pool`, not a
        full load — makes repeat swap-outs of pool-sharing sessions free.
        """
        if self.store is None or self.store.has_pool(store_key):
            return
        self.store.save_pool(
            store_key,
            {"samples": pool.samples.tolist(), "weights": pool.weights.tolist()},
        )

    def restore(self, payload: dict, replace_existing: bool = False) -> str:
        """Rebuild a session from a :meth:`snapshot` payload and register it.

        Also accepts the replay payloads an
        :class:`~repro.service.eventlog.EventLogStore` emits
        (``kind == "eventlog-replay"``): the session is rebuilt by replaying
        its logged rounds and clicks through the deterministic elicitation
        path.
        """
        version = payload.get("version")
        if payload.get("kind") == REPLAY_PAYLOAD_KIND:
            if version not in SUPPORTED_REPLAY_VERSIONS:
                raise ValueError(
                    f"unsupported replay payload version {version!r} "
                    f"(engine reads versions {SUPPORTED_REPLAY_VERSIONS})"
                )
        elif version not in SUPPORTED_SNAPSHOT_VERSIONS:
            raise ValueError(
                f"unsupported snapshot version {version!r} "
                f"(engine reads versions {SUPPORTED_SNAPSHOT_VERSIONS} and "
                f"writes version {SNAPSHOT_VERSION})"
            )
        session_id = payload["session_id"]
        if session_id in self.sessions:
            if not replace_existing:
                raise ValueError(
                    f"session id {session_id!r} already exists; "
                    f"pass replace_existing=True to overwrite"
                )
            self.sessions.remove(session_id)
        entry = self._restore_entry(payload)
        self.sessions.add(entry)
        return session_id

    def _restore_entry(self, payload: dict) -> SessionEntry:
        if payload.get("kind") == REPLAY_PAYLOAD_KIND:
            return self._replay_entry(payload)
        entry = self._new_entry(payload["session_id"], int(payload["seed"]))
        # A blob-restored session has history the event log never saw, so it
        # cannot be rebuilt by replay: keep writing full snapshot blobs on
        # swap-out.  (_replay_entry overrides this for log-native sessions.)
        entry.replayable = False
        recommender = entry.recommender
        entry.created_at = payload["created_at"]
        entry.rounds_served = payload["rounds_served"]
        entry.feedback_events = payload["feedback_events"]
        recommender.rounds_presented = payload["rounds_presented"]
        recommender.clicks_received = payload["clicks_received"]
        for item in payload["preferences"]:
            recommender.preferences.add(
                Preference.from_vectors(
                    np.asarray(item["preferred_vector"], dtype=float),
                    np.asarray(item["other_vector"], dtype=float),
                    preferred=Package(tuple(int(i) for i in item["preferred"])),
                    other=Package(tuple(int(i) for i in item["other"])),
                )
            )
        if payload["last_round"] is not None:
            recommender._last_round = RecommendationRound(
                [
                    Package(tuple(int(i) for i in items))
                    for items in payload["last_round"]["recommended"]
                ],
                [
                    Package(tuple(int(i) for i in items))
                    for items in payload["last_round"]["random"]
                ],
            )
        recommender.rng.bit_generator.state = payload["rng_state"]
        self._restore_pool(entry, payload["pool"])
        return entry

    def _restore_pool(self, entry: SessionEntry, pool_payload: Optional[dict]) -> None:
        """Re-attach a snapshot's pool: embedded, by reference, or deferred.

        Resolution order for reference payloads: the in-memory repository —
        *if* its pool's content digest matches the snapshot's (the same
        fingerprint can hold a different build after eviction + refill, and
        the session's saved RNG state only reproduces rounds against the
        exact pool it was snapshotted with) — then the store's pool table
        (content-addressed, written once per build), and finally nothing:
        the session's provider re-samples on next use, deterministically by
        key, which is exactly the "resampled only on repository miss"
        contract snapshot compaction trades the embedded floats for.

        A ``pending`` payload (an event-log checkpoint of a session clicked
        since its last pool) names the session's stale pool: it is parked
        as stale, and the next round builds the pending pool from it.
        """
        if pool_payload is None:  # tolerate pool-less external payloads
            return
        recommender = entry.recommender
        key = pool_payload.get("key")
        entry.pool_key = key
        if "samples" in pool_payload:  # embedded (v1, or v2 with embed_pool)
            pool = self._stamp_pool(
                SamplePool(
                    np.asarray(pool_payload["samples"], dtype=float),
                    np.asarray(pool_payload["weights"], dtype=float),
                    {"sampler": "snapshot"},
                )
            )
            recommender.set_pool(pool)
            if key is not None:
                self.pool_repository.put(key, pool)
            return
        digest = pool_payload.get("digest")
        pool = self.pool_repository.peek(key)
        if (
            pool is not None
            and digest is not None
            and pool.content_digest() != digest
        ):
            pool = None  # same fingerprint, different build: not our pool
        if pool is None and self.store is not None:
            stored = None
            if digest is not None:
                stored = self.store.load_pool(self._pool_store_key(key, digest))
            if stored is None:
                stored = self.store.load_pool(key)  # digest-less payloads
            if stored is not None:
                pool = self._stamp_pool(
                    SamplePool(
                        np.asarray(stored["samples"], dtype=float),
                        np.asarray(stored["weights"], dtype=float),
                        {"sampler": "snapshot"},
                    )
                )
                if key not in self.pool_repository:
                    # Share it forward — but never clobber a different build
                    # other live sessions are currently working against.
                    self.pool_repository.put(key, pool)
        refill = pool_payload.get("refill")
        if refill is not None:
            # A partial-refill pool is history-dependent: the lazy
            # "re-sample by key on next use" fallback would produce a
            # *different* pool, so an unresolvable (or size-inconsistent)
            # deficit-fill record is divergence, not a cache miss.
            if pool is None:
                raise self._replay_divergence(
                    f"session {entry.session_id!r}: the checkpointed "
                    f"partial-refill pool {key!r} (digest "
                    f"{pool_payload.get('digest')!r}) cannot be resolved "
                    f"from the repository or the store — its deficit-fill "
                    f"record was tampered with or its payload was lost",
                    session_id=entry.session_id,
                    pool_key=key,
                )
            if int(refill.get("size", pool.size)) != pool.size:
                raise self._replay_divergence(
                    f"session {entry.session_id!r}: the resolved pool for "
                    f"{key!r} has {pool.size} samples but its deficit-fill "
                    f"record claims {refill.get('size')} — the checkpoint "
                    f"was tampered with",
                    session_id=entry.session_id,
                    pool_key=key,
                )
        if pool is not None:
            recommender.set_pool(pool, stale=bool(pool_payload.get("pending")))
        # else: leave the pool pending; the provider fills it lazily.

    def _replay_divergence(
        self, message: str, **attrs
    ) -> ReplayDivergenceError:
        """Fire the divergence alarm and hand back the error to raise.

        Divergence is the log-as-source-of-truth design failing its core
        promise, so beyond raising it must be *loud*: the labeled alarm
        counter increments and a structured trace event is emitted (kept
        past sampling) before the exception propagates.
        """
        self.telemetry.alarm("replay_divergence", message=message, **attrs)
        return ReplayDivergenceError(message)

    # ========================================================== replay restore
    def _replay_entry(self, payload: dict) -> SessionEntry:
        """Rebuild a session by replaying its event-log history.

        The logged ``recommended`` packages are injected into
        :meth:`PackageRecommender.recommend`, which re-draws the exploration
        packages from the session RNG exactly as the live session did — so
        after replay the RNG stream, preference DAG and last round are
        bit-identical to a session that never swapped out.  The re-drawn
        exploration packages are checked against the log
        (:class:`ReplayDivergenceError` on mismatch): replay is also an
        integrity audit of the deterministic path.

        Checkpoint pool reattachment is *phased*: the checkpointed pool is
        attached at the checkpoint's position in the event stream, so a
        click replayed after it parks it as the stale pool for §3.4
        maintenance — exactly the state a live session would be in.  From
        there on, a replayed round whose pool is pending provisions it
        first, as serving did live, so each later click parks the pool the
        live session parked: after a pending checkpoint (one that
        reattaches a stale pool, or none), and for every round of a
        session replayed from its seed alone.
        """
        base = payload.get("base")
        if base is not None:
            # A session imported from a snapshot blob: the blob is the base
            # state and only the suffix logged after it replays on top.
            entry = self._restore_entry(base)
        else:
            entry = self._new_entry(payload["session_id"], int(payload["seed"]))
            if payload.get("created_at") is not None:
                entry.created_at = payload["created_at"]
        recommender = entry.recommender
        checkpoint = payload.get("checkpoint")
        checkpoint_seq = int(payload.get("checkpoint_seq") or 0)
        pool_attached = checkpoint is None
        for event in payload.get("events") or ():
            if not pool_attached and int(event.get("seq", 0)) > checkpoint_seq:
                self._restore_pool(entry, checkpoint.get("pool"))
                pool_attached = True
            etype = event.get("type")
            if etype == EVENT_RECOMMEND_SERVED:
                if pool_attached and recommender.pending_pool is None:
                    self._provision([entry])
                recommended = [
                    Package(tuple(int(i) for i in items))
                    for items in event.get("recommended") or []
                ]
                round_ = recommender.recommend(
                    recommended=recommended if recommended else None
                )
                entry.rounds_served += 1
                replayed = [list(p.items) for p in round_.random_packages]
                logged = [
                    [int(i) for i in items] for items in event.get("random") or []
                ]
                if replayed != logged:
                    raise self._replay_divergence(
                        f"session {entry.session_id!r}: replayed exploration "
                        f"packages {replayed} differ from logged {logged} at "
                        f"seq {event.get('seq')} — the deterministic serving "
                        f"path changed since the log was written",
                        session_id=entry.session_id,
                        seq=event.get("seq"),
                    )
            elif etype == EVENT_FEEDBACK:
                clicked = Package(tuple(int(i) for i in event["clicked"]))
                try:
                    recommender.feedback(clicked)
                except ValueError as exc:
                    raise self._replay_divergence(
                        f"session {entry.session_id!r}: logged click "
                        f"{list(clicked.items)} rejected during replay at "
                        f"seq {event.get('seq')}: {exc}",
                        session_id=entry.session_id,
                        seq=event.get("seq"),
                    ) from exc
                entry.feedback_events += 1
        if not pool_attached:
            # No events after the checkpoint: the pool attaches as current.
            self._restore_pool(entry, checkpoint.get("pool"))
        entry.replayable = base is None
        self.sessions_replayed += 1
        return entry

    # ================================================================== stats
    def stats(self) -> EngineStats:
        """Current serving counters (sessions, rounds, cache efficiency)."""
        pool_stats = self.pool_repository.stats.as_dict()
        pool_stats["samples_saved"] = self.pool_repository.samples_saved
        return EngineStats(
            sessions_created=self.sessions_created,
            sessions_active=len(self.sessions),
            sessions_expired=self.sessions.sessions_expired,
            sessions_swapped_out=self.sessions.sessions_swapped_out,
            sessions_restored=self.sessions.sessions_restored,
            swap_writes_skipped=self.sessions.swap_writes_skipped,
            rounds_served=self.rounds_served,
            feedback_events=self.feedback_events,
            pools_sampled=self.pools_sampled,
            pools_maintained=self.pools_maintained,
            pools_adapted=self.pools_adapted,
            pools_warmed=self.pools_warmed,
            topk_batched_pools=self.topk_batched_pools,
            pool_cache=pool_stats,
            pool_repository=self.pool_repository.describe(),
            topk_cache=self._topk_cache.stats.as_dict(),
            adaptation=(
                self.pool_adapter.stats.as_dict()
                if self.pool_adapter is not None
                else {}
            ),
            sessions_replayed=self.sessions_replayed,
            eventlog=(
                self.event_log.describe() if self.event_log is not None else {}
            ),
            pools_built=self.pools_built,
            pools_partial_refilled=self.pools_partial_refilled,
        )

    def metrics_snapshot(self) -> dict:
        """Plain-data snapshot of every registered telemetry instrument.

        Gauges mirroring the ad-hoc stats surfaces (cache hits/misses,
        session and pool counters) are synced *from those surfaces* at
        snapshot time — the dataclass counters stay the single source of
        truth, so the registry view can never diverge from
        :meth:`stats` no matter which path mutated a counter.  Live
        instruments (latency histograms, alarm and request counters) are
        reported as accumulated.
        """
        self._sync_metrics()
        return self.telemetry.registry.snapshot()

    def observe(self) -> dict:
        """One tree consolidating every observability surface of the stack.

        ``engine`` is :meth:`stats` (EngineStats, which already folds in
        adaptation, event-log and shard-repository describes),
        ``metrics`` is :meth:`metrics_snapshot`, ``telemetry`` describes
        the tracer/sampler, and every registered observable (the dispatcher
        registers itself as ``dispatcher``) appears under its own name.
        The legacy accessors (``engine.stats()``, ``dispatcher.stats``,
        ``adapter.stats`` …) keep working and report the same numbers.
        """
        tree = {
            "engine": self.stats().as_dict(),
            "metrics": self.metrics_snapshot(),
            "telemetry": self.telemetry.describe(),
        }
        tree.update(self.telemetry.observables())
        return tree

    def _sync_metrics(self) -> None:
        registry = self.telemetry.registry
        stats = self.stats()
        mirrors = {
            "repro_sessions_active": (
                "Sessions currently in memory", stats.sessions_active),
            "repro_sessions_created": (
                "Sessions created", stats.sessions_created),
            "repro_rounds_served": (
                "Recommendation rounds served", stats.rounds_served),
            "repro_feedback_events": (
                "Click feedback events", stats.feedback_events),
            "repro_pools_built": (
                "Pools built (sampled + maintained + adapted + refilled)",
                stats.pools_built),
            "repro_pool_cache_hits": (
                "Pool repository hits", stats.pool_cache["hits"]),
            "repro_pool_cache_misses": (
                "Pool repository misses", stats.pool_cache["misses"]),
            "repro_topk_cache_hits": (
                "Top-k cache hits", stats.topk_cache["hits"]),
            "repro_topk_cache_misses": (
                "Top-k cache misses", stats.topk_cache["misses"]),
        }
        for name, (help_text, value) in mirrors.items():
            registry.gauge(name, help_text).set(value)

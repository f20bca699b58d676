"""Online serving engine: many concurrent elicitation sessions, shared work.

The paper's system elicits preferences from one user at a time; this package
is the serving layer that carries the same machinery to many users at once,
the first step toward the production north star in ROADMAP.md.  The key
observation is that per-user state (the preference DAG, click counters, RNG)
is tiny, while the expensive artifacts — the constrained sample pool over
``Pw`` and the per-sample ``Top-k-Pkg`` searches — depend only on the
*constraint set* the feedback induces.  Sessions whose feedback prefixes are
identical therefore share one pool and one top-k result, keyed by a canonical
:meth:`~repro.sampling.base.ConstraintSet.fingerprint`.

* :class:`RecommendationEngine` — request/response facade
  (``create_session`` / ``recommend`` / ``feedback`` / ``close``) over the
  shared pool repository, a shared top-k result cache, and batched sampling
  across pending sessions.
* :class:`ShardedPoolRepository` — the fingerprint-partitioned pool state
  layer: pool keys consistent-hash across N shards, each owning its pools,
  LRU budget, pinned set and fill construction, with fills grouped per
  shard and runnable in parallel via a :class:`ShardBackend` (inline or
  worker processes).  Each fill is
  described by a picklable :class:`~repro.sampling.fillspec.FillSpec` —
  plain data resolved by the module-level ``build_sampler`` — which is what
  lets :class:`ProcessShardBackend` ship fills across the process boundary
  and escape the GIL.  Fills are key-deterministic, so shard count, backend,
  and placement never change what is served.
* :class:`WarmStartPlanner` — precomputes and pins the empty-prefix pool and
  the top-K first-click pools at engine start so cold sessions never sample.
* :class:`PoolAdapter` + :class:`ConstraintSimilarityIndex` (approximate pool
  reuse) — on a repository miss, find live donor pools whose constraint sets
  are near the target (prefix / one-click-apart / high-overlap),
  importance-reweight them with the §7 noise-model likelihood ratio, and
  serve the adapted pool when its effective sample size clears a configured
  floor — trading a full sampling run for one matrix pass
  (``EngineConfig(pool_adaptation=AdaptationConfig(...))``).
* :class:`SessionManager` — bounded active-session table with TTL expiry and
  LRU eviction; evicted sessions are transparently swapped out to a
  :class:`SessionStore` (JSON files or SQLite in WAL mode) and restored on
  their next request.  Swap-out snapshots reference pools by fingerprint
  (stored once per key in the store's pool table) — snapshot compaction.
* :class:`EventLogStore` + :class:`EventLog` — the event-sourced store: an
  append-only, CRC-framed, fsync-batched log of ``session_created`` /
  ``recommend_served`` / ``feedback`` events is the source of truth; a
  swap-out appends a ``(log offset, pool reference)`` checkpoint instead of
  a blob, restore *replays* the click history through the deterministic
  elicitation path (bit-identical to never having swapped out), crash
  recovery truncates the torn tail and replays the intact prefix, and one
  :meth:`EventLogStore.compact` sweep drives both log-segment retention and
  pool-table garbage collection.  :func:`mine_click_prefixes` +
  :meth:`RecommendationEngine.warm_start_from_log` frequency-rank the
  *observed* click prefixes to warm depth-2+ pools no enumeration could
  foresee.
* :class:`AsyncRecommendationServer` + :class:`MicroBatchDispatcher` — the
  asyncio front-end: concurrent ``recommend`` requests accumulate in a
  micro-batch window (max size / max wait, with a ``max_pending``
  backpressure cap) and dispatch together through ``recommend_many``, so
  concurrency feeds the batched sampler and the across-session top-k walk
  instead of serialising on them.
* :class:`~repro.simulation.traffic.TrafficSimulator` /
  :class:`~repro.simulation.traffic.AsyncTrafficSimulator` (in the simulation
  package) — closed- and open-loop load generators used by the serving
  benchmarks.
"""

from repro.core.noise import NoiseModel
from repro.service.adaptation import (
    AdaptationConfig,
    AdaptationStats,
    ConstraintSimilarityIndex,
    DonorCandidate,
    PoolAdapter,
)
from repro.service.async_server import AsyncRecommendationServer
from repro.service.dispatcher import (
    DispatcherClosedError,
    DispatcherOverloadedError,
    DispatcherStats,
    MicroBatchDispatcher,
)
from repro.service.eventlog import (
    EventLog,
    EventLogCorruptionError,
    EventLogStore,
    LogPosition,
    PrefixStat,
    ReplayDivergenceError,
    RetentionReport,
    mine_click_prefixes,
)
from repro.sampling.fillspec import FillContext, FillSpec, build_sampler, execute_fill
from repro.service.pool_cache import CacheStats, LruCache, SamplePoolCache
from repro.service.pool_repository import (
    InlineShardBackend,
    LogWarmStartReport,
    PoolFillJob,
    PoolShard,
    ProcessShardBackend,
    SHARD_BACKEND_NAMES,
    ShardBackend,
    ShardedPoolRepository,
    WarmStartPlanner,
    WarmStartReport,
    build_shard_backend,
    parse_shard_backend,
)
from repro.service.store import (
    JsonSessionStore,
    MemorySessionStore,
    SessionStore,
    SqliteSessionStore,
)
from repro.service.session_manager import SessionEntry, SessionManager
from repro.service.engine import (
    EngineConfig,
    EngineStats,
    RecommendationEngine,
    SessionExpiredError,
    SessionNotFoundError,
)

__all__ = [
    "AdaptationConfig",
    "AdaptationStats",
    "ConstraintSimilarityIndex",
    "DonorCandidate",
    "NoiseModel",
    "PoolAdapter",
    "AsyncRecommendationServer",
    "DispatcherClosedError",
    "DispatcherOverloadedError",
    "DispatcherStats",
    "MicroBatchDispatcher",
    "CacheStats",
    "LruCache",
    "SamplePoolCache",
    "FillContext",
    "FillSpec",
    "InlineShardBackend",
    "LogWarmStartReport",
    "PoolFillJob",
    "PoolShard",
    "ProcessShardBackend",
    "SHARD_BACKEND_NAMES",
    "ShardBackend",
    "ShardedPoolRepository",
    "WarmStartPlanner",
    "WarmStartReport",
    "build_sampler",
    "build_shard_backend",
    "execute_fill",
    "parse_shard_backend",
    "SessionStore",
    "MemorySessionStore",
    "JsonSessionStore",
    "SqliteSessionStore",
    "EventLog",
    "EventLogCorruptionError",
    "EventLogStore",
    "LogPosition",
    "PrefixStat",
    "ReplayDivergenceError",
    "RetentionReport",
    "mine_click_prefixes",
    "SessionEntry",
    "SessionManager",
    "EngineConfig",
    "EngineStats",
    "RecommendationEngine",
    "SessionNotFoundError",
    "SessionExpiredError",
]

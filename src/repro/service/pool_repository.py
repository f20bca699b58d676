"""Fingerprint-partitioned pool storage: the serving stack's state layer.

Before this module, pool state was a single in-process dict: one flat
:class:`~repro.service.pool_cache.SamplePoolCache` owned by the engine, every
snapshot embedding its full ``num_samples × m`` pool, and the hottest pools
(empty prefix, common first clicks) rebuilt on every cold start.  This module
makes fingerprint-keyed pool storage a first-class, partitioned layer — the
same move log-structured cloud stores make when they partition state by key
to scale writes, and multi-petabyte designs make when they pin hot
partitions:

* :class:`ShardedPoolRepository` — the store every layer that touches pools
  goes through: ``get`` / ``put`` / ``pin`` / ``evict`` / ``fill`` keyed by
  the engine's pool keys (``n<count>:<ConstraintSet.fingerprint()>``),
  consistent-hashed across N :class:`PoolShard` partitions.  Each shard owns
  its pools, its LRU budget, its pinned (eviction-exempt) set, and its
  sampler construction, so cache fills for different shards are independent
  work items that a :class:`ShardBackend` can run in parallel.
* :class:`ShardBackend` — where shard work executes:
  :class:`InlineShardBackend` (sequential, zero overhead, the default) or
  :class:`ProcessShardBackend` (a persistent worker-process pool).  Shards
  describe fills as picklable :class:`~repro.sampling.fillspec.FillSpec`
  records rather than closures, which is what lets the process backend ship
  a fill across the process boundary and resolve it worker-side with the
  module-level :func:`~repro.sampling.fillspec.build_sampler`.
* :class:`WarmStartPlanner` — precomputes and **pins** the always-hot pools
  (the empty-prefix pool and the top-K first-click pools) at engine start, so
  cold sessions never sample.

**Determinism is the load-bearing design decision.**  A fill for key ``k``
draws from a sampler seeded by ``k`` (the engine's factory derives the RNG
from its own seed plus the key), never from a shared stream.  Pool contents
therefore depend only on the key — not on which shard filled it, in what
order, on how many shards exist, or whether fills ran in a worker or inline —
which is what makes 1-shard and 4-shard engines produce bit-identical
recommendations (pinned by ``tests/test_pool_repository.py`` and
``benchmarks/test_bench_sharding.py``) and makes a snapshot's pool
re-derivable from its fingerprint reference alone when every cache misses.

Consistent hashing (a 64-bit ring with virtual nodes) rather than modulo
keeps the partition map stable under resizing: going from N to N+1 shards
moves ~1/(N+1) of the keys instead of nearly all of them, so a warmed
deployment can grow without refilling the world.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.fillspec import (
    FillContext,
    FillSpec,
    execute_fill,
    get_fill_context,
    known_fill_contexts,
    register_fill_context,
)
from repro.service.pool_cache import CacheStats, SamplePoolCache

__all__ = [
    "FillSpecFactory",
    "PoolFillJob",
    "PoolShard",
    "ShardBackend",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardedPoolRepository",
    "WarmStartPlanner",
    "WarmStartReport",
    "build_shard_backend",
    "parse_shard_backend",
]

#: The fill seam: ``factory(pool_key, constraints, count) -> FillSpec``.
#: The factory runs engine-side (it folds the engine's seed root and
#: context digest into the spec); the spec then resolves anywhere —
#: inline or in a worker process — via the module-level
#: :func:`~repro.sampling.fillspec.build_sampler`.
FillSpecFactory = Callable[[str, ConstraintSet, int], FillSpec]

#: Names accepted by :func:`build_shard_backend` (each optionally suffixed
#: with a worker-count override, e.g. ``"process:4"``).
SHARD_BACKEND_NAMES = ("inline", "process")


def _hash64(text: str) -> int:
    """A stable (process-independent) 64-bit hash used for the ring."""
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class PoolFillJob:
    """One pool build request: draw ``count`` samples valid under ``constraints``.

    The owning shard derives the job's :class:`FillSpec` from its
    ``spec_factory``.
    """

    key: str
    constraints: ConstraintSet
    count: int


#: One backend work item: the shard that owns the jobs, and its batch.
ShardFillBatch = Tuple["PoolShard", Sequence[PoolFillJob]]


# ================================================================== backends
class ShardBackend(abc.ABC):
    """Execution strategy for per-shard work items."""

    #: Human-readable backend name (reported in engine stats).
    name: str = "base"

    #: Optional :class:`~repro.obs.Telemetry` facade; backends that recover
    #: from worker failures fire alarms through it when set (see
    #: :meth:`ShardedPoolRepository.attach_telemetry`).
    telemetry = None

    @abc.abstractmethod
    def run_fill_batches(
        self, batches: Sequence[ShardFillBatch]
    ) -> Dict[str, SamplePool]:
        """Run per-shard fill batches; returns ``{job.key: pool}`` merged."""

    def close(self) -> None:
        """Release any execution resources (idempotent; default no-op)."""


class InlineShardBackend(ShardBackend):
    """Run shard work sequentially on the calling thread (the default).

    Zero overhead and trivially deterministic — the right choice for
    single-shard repositories, tests, and single-core hosts.
    """

    name = "inline"

    def run_fill_batches(
        self, batches: Sequence[ShardFillBatch]
    ) -> Dict[str, SamplePool]:
        results: Dict[str, SamplePool] = {}
        for shard, jobs in batches:
            results.update(shard.fill_jobs(jobs))
        return results


# -------------------------------------------------------- process worker side
def _process_worker_init(contexts: Sequence[FillContext]) -> None:
    """Worker-pool initializer: register the shipped fill contexts.

    Runs once per worker process.  Contexts are content-addressed, so a
    forked worker that inherited the parent's registry re-registers them as
    no-ops; a spawned worker starts empty and this is its only copy.
    """
    for context in contexts:
        register_fill_context(context)


def _process_fill_batch(
    items: Sequence[Tuple[FillSpec, Optional[FillContext]]],
) -> List[Tuple[str, np.ndarray, np.ndarray, dict]]:
    """Run one shard's fill batch in a worker process.

    Returns plain ``(key, samples, weights, stats)`` tuples — arrays and
    dicts, never live :class:`SamplePool` objects — re-hydrated engine-side.
    ``stats`` gains the worker's PID so tests (and operators) can verify
    fills actually left the engine process.
    """
    results = []
    for spec, context in items:
        pool = execute_fill(spec, context)
        stats = dict(pool.stats)
        stats["fill_worker_pid"] = os.getpid()
        results.append((spec.key, pool.samples, pool.weights, stats))
    return results


class ProcessShardBackend(ShardBackend):
    """Run shard fill batches on a persistent pool of worker processes.

    The backend the :class:`FillSpec` seam exists for: each batch is reduced
    to picklable specs, shipped to a :class:`ProcessPoolExecutor`, resolved
    worker-side by the module-level
    :func:`~repro.sampling.fillspec.build_sampler`, and returned as plain
    weight/sample arrays re-hydrated into :class:`SamplePool` engine-side.
    Because fills are key-deterministic, escaping the GIL this way changes
    *where* a pool is computed but never *what* it contains.

    Shared state ships once: the first dispatch snapshots every registered
    :class:`FillContext` and hands it to the worker initializer; workers
    cache contexts by digest, so steady-state specs are a few hundred bytes.
    A context registered *after* the pool spawned rides along with its spec.

    Worker death (OOM kill, segfault, ``os._exit``) surfaces as
    ``BrokenProcessPool``; the backend discards the broken pool, retries the
    whole dispatch once on a fresh pool, and if that also dies falls back to
    executing the specs inline — the shard is never poisoned and the fill
    result is identical either way (``worker_restarts`` and
    ``inline_fallbacks`` count the recoveries).
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be > 0 or None, got {max_workers}")
        self.max_workers = max_workers
        self.start_method = start_method
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shipped: frozenset = frozenset()
        self.batches_dispatched = 0
        self.worker_restarts = 0
        self.inline_fallbacks = 0

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            contexts = list(known_fill_contexts().values())
            self._shipped = frozenset(c.digest for c in contexts)
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_process_worker_init,
                initargs=(contexts,),
            )
        return self._executor

    def _payloads(
        self, batches: Sequence[ShardFillBatch]
    ) -> List[Tuple["PoolShard", List[Tuple[FillSpec, Optional[FillContext]]]]]:
        """Reduce each batch to picklable ``(spec, context?)`` items."""
        payloads = []
        for shard, jobs in batches:
            items = []
            for job in jobs:
                spec = shard.spec_for(job)
                # Contexts the initializer already shipped live worker-side;
                # anything registered since rides along with its spec.
                context = (
                    None
                    if spec.context_digest in self._shipped
                    else get_fill_context(spec.context_digest)
                )
                items.append((spec, context))
            payloads.append((shard, items))
        return payloads

    def run_fill_batches(
        self, batches: Sequence[ShardFillBatch]
    ) -> Dict[str, SamplePool]:
        batches = [(shard, list(jobs)) for shard, jobs in batches if jobs]
        if not batches:
            return {}
        self._ensure_executor()  # fix the shipped-context set before _payloads
        payloads = self._payloads(batches)
        for _attempt in range(2):
            executor = self._ensure_executor()
            submitted = [
                (shard, executor.submit(_process_fill_batch, items))
                for shard, items in payloads
            ]
            try:
                results: Dict[str, SamplePool] = {}
                for shard, future in submitted:
                    for key, samples, weights, stats in future.result():
                        pool = SamplePool(samples, weights, stats)
                        shard.record_fill(pool)
                        results[key] = pool
                self.batches_dispatched += len(payloads)
                return results
            except BrokenProcessPool:
                # A worker died mid-fill and took the pool down with it.
                # Discard the carcass; the loop retries once on a fresh pool.
                self.worker_restarts += 1
                if self.telemetry is not None:
                    self.telemetry.alarm(
                        "worker_restart", backend=self.name, attempt=_attempt + 1
                    )
                executor.shutdown(wait=False)
                self._executor = None
        # Two pools died in a row — something environmental (not one flaky
        # worker).  Fills are pure functions of their specs, so run them
        # inline: slower, but identical output and the shard stays healthy.
        self.inline_fallbacks += 1
        if self.telemetry is not None:
            self.telemetry.alarm(
                "fill_inline_fallback",
                backend=self.name,
                specs=sum(len(items) for _shard, items in payloads),
            )
        results = {}
        for shard, items in payloads:
            for spec, context in items:
                pool = execute_fill(spec, context)
                shard.record_fill(pool)
                results[spec.key] = pool
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def parse_shard_backend(name: str) -> Tuple[str, Optional[int]]:
    """Split a backend name into ``(base, worker_override)``.

    Accepts ``"inline"`` and ``"process"``, each optionally
    suffixed ``":N"`` to override the worker count (e.g. ``"process:4"``).
    Unknown names raise a ``ValueError`` that lists the valid backends.
    """
    base, _, suffix = str(name).partition(":")
    workers: Optional[int] = None
    if suffix:
        try:
            workers = int(suffix)
        except ValueError:
            raise ValueError(
                f"shard backend worker-count override must be an integer, "
                f"got {name!r} (expected e.g. 'process:4')"
            ) from None
        if workers <= 0:
            raise ValueError(
                f"shard backend worker-count override must be > 0, got {name!r}"
            )
    if base not in SHARD_BACKEND_NAMES:
        raise ValueError(
            f"unknown shard backend {name!r}: valid backends are "
            + ", ".join(repr(n) for n in SHARD_BACKEND_NAMES)
            + " (optionally with a worker-count override, e.g. 'process:4')"
        )
    return base, workers


def build_shard_backend(name: str, num_shards: int) -> ShardBackend:
    """A backend instance from its configured name.

    The worker count is the name's ``":N"`` suffix, else one worker per
    shard.
    """
    base, override = parse_shard_backend(name)
    if base == "inline":
        return InlineShardBackend()
    return ProcessShardBackend(
        max_workers=override if override is not None else num_shards
    )


# ===================================================================== shards
class PoolShard:
    """One partition: an LRU pool cache, a pinned set, and fill execution.

    The shard's ``spec_factory`` is the only engine-derived state it holds,
    and it produces *data* (picklable :class:`FillSpec` records), not live
    samplers — which is what lets a process backend ship the shard's fills
    across the process boundary.
    """

    def __init__(
        self, index: int, capacity: int, spec_factory: FillSpecFactory
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.index = index
        self.capacity = int(capacity)
        self.cache = SamplePoolCache(capacity)
        self.pinned: Dict[str, SamplePool] = {}
        self.spec_factory = spec_factory
        self.fills = 0
        self.samples_filled = 0
        # Telemetry instruments, resolved once per shard in attach_telemetry
        # so record_fill pays no label lookup per fill.
        self._fill_counter = None
        self._fill_samples = None
        self._fill_latency = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind this shard's fill instruments to ``telemetry``'s registry."""
        registry = telemetry.registry
        shard_label = str(self.index)
        self._fill_counter = registry.counter(
            "repro_pool_fills_total",
            "Pools built, by shard",
            labels=("shard",),
        ).labels(shard=shard_label)
        self._fill_samples = registry.counter(
            "repro_pool_samples_filled_total",
            "Posterior samples drawn by pool fills, by shard",
            labels=("shard",),
        ).labels(shard=shard_label)
        self._fill_latency = registry.histogram(
            "repro_pool_fill_seconds",
            "Wall-clock seconds per pool fill, by shard",
            labels=("shard",),
        ).labels(shard=shard_label)

    # ---------------------------------------------------------------- storage
    def get(self, key: str) -> Optional[SamplePool]:
        pool = self.pinned.get(key)
        if pool is not None:
            # A pinned hit is a cache win like any other: count it (and the
            # sampling it saved) in the shard's ordinary statistics.
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
        return list(self.pinned) + self.cache.keys()

    # ------------------------------------------------------------------ fills
    def spec_for(self, job: PoolFillJob) -> FillSpec:
        """The picklable spec describing ``job``, from the shard's ``spec_factory``."""
        return self.spec_factory(job.key, job.constraints, job.count)

    def record_fill(self, pool: SamplePool) -> None:
        """Count a completed fill against this shard's load statistics.

        Runs on the calling thread for every backend (process fills are
        recorded engine-side once their results come back).
        """
        self.fills += 1
        self.samples_filled += pool.size
        if self._fill_counter is not None:
            self._fill_counter.inc()
            self._fill_samples.inc(pool.size)
            seconds = pool.stats.get("fill_seconds")
            if seconds is not None:
                self._fill_latency.observe(float(seconds))

    def fill(self, job: PoolFillJob) -> SamplePool:
        """Build one pool with a sampler seeded for the job's key."""
        pool = execute_fill(self.spec_for(job))
        self.record_fill(pool)
        return pool

    def fill_jobs(self, jobs: Sequence[PoolFillJob]) -> Dict[str, SamplePool]:
        """Run a batch of fills sequentially on this shard."""
        return {job.key: self.fill(job) for job in jobs}


# ================================================================ repository
class ShardedPoolRepository:
    """Pools consistent-hashed across N shards with per-shard LRU budgets.

    Keyed storage *and* build service for shared sample pools: the engine's
    provisioning stage, snapshot restore and the warm-start planner all go
    through it, so pool placement (one shard, N shards, N processes) is
    invisible above it.

    Parameters
    ----------
    spec_factory:
        ``factory(pool_key, constraints, count) -> FillSpec``; the engine
        folds its seed root into the spec's derived seed, which is how the
        determinism contract (module docstring) is honoured.  Required.
    num_shards:
        Number of partitions.  One shard with the inline backend reproduces
        the old single-cache behaviour exactly.
    capacity:
        *Total* LRU budget, split evenly across shards (each shard gets
        ``ceil(capacity / num_shards)``); ``0`` disables storage entirely —
        every ``get`` misses and ``put``/``pin`` are no-ops — which is how the
        per-session baseline runs without branching at call sites.  Pinned
        pools do not count against the LRU budget.
    backend:
        Where per-shard fill batches execute; default inline.
    virtual_nodes:
        Ring points per shard.  More points smooth the key distribution;
        the default (64) keeps the worst shard within a few percent of fair.
    """

    def __init__(
        self,
        spec_factory: Optional[FillSpecFactory] = None,
        num_shards: int = 1,
        capacity: int = 512,
        backend: Optional[ShardBackend] = None,
        virtual_nodes: int = 64,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be > 0, got {num_shards}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be > 0, got {virtual_nodes}")
        if spec_factory is None:
            raise ValueError("a spec_factory is required")
        self.capacity = int(capacity)
        per_shard = -(-capacity // num_shards) if capacity else 0  # ceil div
        self.shards = [
            PoolShard(index, per_shard, spec_factory)
            for index in range(num_shards)
        ]
        self.backend = backend if backend is not None else InlineShardBackend()
        ring = sorted(
            (_hash64(f"shard-{index}#{replica}"), index)
            for index in range(num_shards)
            for replica in range(virtual_nodes)
        )
        self._ring_points = [point for point, _index in ring]
        self._ring_shards = [index for _point, index in ring]
        self.fill_batches = 0
        self.multi_shard_fill_batches = 0
        self.telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`~repro.obs.Telemetry` facade through the topology.

        Each shard resolves its labeled fill instruments once, and the
        backend gets the facade so worker-restart / inline-fallback recovery
        paths can fire alarms.
        """
        self.telemetry = telemetry
        for shard in self.shards:
            shard.attach_telemetry(telemetry)
        self.backend.telemetry = telemetry

    # ----------------------------------------------------------------- routing
    def shard_for(self, key: str) -> PoolShard:
        """The shard that owns ``key`` (first ring point at or after its hash)."""
        if len(self.shards) == 1:
            return self.shards[0]
        position = bisect.bisect_right(self._ring_points, _hash64(key))
        if position == len(self._ring_points):
            position = 0  # wrap around the ring
        return self.shards[self._ring_shards[position]]

    # ----------------------------------------------------------------- storage
    def get(self, key: str) -> Optional[SamplePool]:
        return self.shard_for(key).get(key)

    def peek(self, key: str) -> Optional[SamplePool]:
        return self.shard_for(key).peek(key)

    def put(self, key: str, pool: SamplePool) -> None:
        self.shard_for(key).put(key, pool)

    def pin(self, key: str, pool: Optional[SamplePool] = None) -> None:
        self.shard_for(key).pin(key, pool)

    def unpin(self, key: str) -> None:
        self.shard_for(key).unpin(key)

    def evict(self, key: str) -> bool:
        return self.shard_for(key).evict(key)

    def __contains__(self, key: str) -> bool:
        return key in self.shard_for(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def keys(self) -> List[str]:
        """Every stored key (pinned first, then LRU order, shard by shard)."""
        return [key for shard in self.shards for key in shard.keys()]

    def pinned_keys(self) -> List[str]:
        """Keys currently exempt from eviction."""
        return [key for shard in self.shards for key in shard.pinned]

    # ------------------------------------------------------------------- fills
    def fill_one(self, key: str, constraints: ConstraintSet, count: int) -> SamplePool:
        return self.shard_for(key).fill(PoolFillJob(key, constraints, count))

    def fill_many(self, jobs: Sequence[PoolFillJob]) -> Dict[str, SamplePool]:
        jobs = list(jobs)
        if not jobs:
            return {}
        by_shard: Dict[int, List[PoolFillJob]] = {}
        for job in jobs:
            by_shard.setdefault(self.shard_for(job.key).index, []).append(job)
        self.fill_batches += 1
        if len(by_shard) > 1:
            self.multi_shard_fill_batches += 1
        return self.backend.run_fill_batches(
            [(self.shards[index], batch) for index, batch in by_shard.items()]
        )

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> CacheStats:
        """Aggregated hit/miss/eviction/put counters across every shard."""
        total = CacheStats()
        for shard in self.shards:
            stats = shard.cache.stats
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.puts += stats.puts
        return total

    @property
    def samples_saved(self) -> int:
        """Total sample draws avoided by cache and pinned hits."""
        return sum(shard.cache.samples_saved for shard in self.shards)

    @property
    def fills(self) -> int:
        """Total pools built across every shard."""
        return sum(shard.fills for shard in self.shards)

    def describe(self) -> dict:
        """Topology and per-shard load, for :meth:`EngineStats.as_dict`."""
        backend_extras = {
            counter: getattr(self.backend, counter)
            for counter in (
                "batches_dispatched",
                "worker_restarts",
                "inline_fallbacks",
            )
            if hasattr(self.backend, counter)
        }
        return {
            "num_shards": len(self.shards),
            "backend": self.backend.name,
            **backend_extras,
            "capacity": self.capacity,
            "pinned": len(self.pinned_keys()),
            "fills": self.fills,
            "fill_batches": self.fill_batches,
            "multi_shard_fill_batches": self.multi_shard_fill_batches,
            "per_shard": [
                {
                    "shard": shard.index,
                    "entries": len(shard),
                    "pinned": len(shard.pinned),
                    "fills": shard.fills,
                    "hits": shard.cache.stats.hits,
                    "misses": shard.cache.stats.misses,
                }
                for shard in self.shards
            ],
        }

    def close(self) -> None:
        """Release the backend's execution resources."""
        self.backend.close()


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
       :meth:`~ShardedPoolRepository.fill_many` (grouped per shard, so a
       parallel backend overlaps them), and pin them.

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

    def _repository(self) -> ShardedPoolRepository:
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
        :meth:`~ShardedPoolRepository.fill_many` batch.  Fills are
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

"""Shared caches for the serving engine (LRU + hit/miss accounting).

:class:`SamplePoolCache` maps canonical constraint-set fingerprints to
:class:`~repro.sampling.base.SamplePool` objects so concurrent sessions with
identical feedback prefixes share one pool of posterior weight samples
instead of re-sampling ``Pw`` from scratch.  Cached pools are treated as
immutable by convention: consumers must not modify ``pool.samples`` in place
(maintenance always builds a new pool via :meth:`SamplePool.subset` /
:meth:`SamplePool.concatenate`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.sampling.base import SamplePool


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Counters plus the derived hit rate, for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class LruCache:
    """A size-bounded least-recently-used mapping with statistics.

    ``maxsize == 0`` produces a disabled cache: every ``get`` misses and
    ``put`` is a no-op.  That degenerate mode is how the engine's caching is
    switched off for baseline comparisons without branching at call sites.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshing its recency), or ``None`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def peek(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but without touching the hit/miss statistics.

        For consumers that already know the entry's provenance, whose
        lookup should not count as a cache hit or miss.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh a value, evicting the LRU entry when full."""
        if self.maxsize == 0:
            return
        self.stats.puts += 1
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the cached value, or ``None`` if absent.

        Statistics are untouched: a pop is ownership transfer (e.g. a pool
        shard moving an entry to its pinned set), not a lookup or an eviction.
        """
        return self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        self._entries.clear()

    def keys(self):
        """Cached keys, least recently used first."""
        return list(self._entries.keys())


class SamplePoolCache(LruCache):
    """LRU cache of sample pools keyed by constraint-set fingerprints.

    Beyond the generic LRU behaviour it tracks how many sample draws were
    *saved*: every hit means one ``count``-sized pool did not have to be
    regenerated.
    """

    def __init__(self, maxsize: int) -> None:
        super().__init__(maxsize)
        self.samples_saved = 0

    def get(self, key: Hashable) -> Optional[SamplePool]:
        pool = super().get(key)
        if pool is not None:
            self.samples_saved += pool.size
        return pool

    def put(self, key: Hashable, pool: SamplePool) -> None:
        if not isinstance(pool, SamplePool):
            raise TypeError(f"SamplePoolCache stores SamplePool values, got {type(pool)!r}")
        super().put(key, pool)

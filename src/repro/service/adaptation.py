"""Approximate pool reuse: adapt a *near-miss* donor pool instead of sampling.

The pool repository shares pools only on **exact** constraint-set fingerprint
matches.  Under heterogeneous traffic that makes the repository miss the
dominant cold-path cost: two sessions whose feedback histories differ by one
click have different fingerprints, and the second one resamples a full pool
from scratch even though the two posteriors are nearly identical.  With the
§7 noise model in force, that resample is unnecessary — a pool sampled for a
*similar* constraint set is a statistically valid proposal distribution for
the target set and can be importance-reweighted instead
(:mod:`repro.sampling.reweight`).  This module is the serving-layer subsystem
that performs the trade:

* :class:`ConstraintSimilarityIndex` — fingerprints are one-way hashes, so
  the index keeps the inverse mapping the engine registers as it derives pool
  keys: ``key → (canonical constraint rows, pool size)``.  Candidate donors
  for a target set are ranked structurally: *prefix* donors (every donor row
  is a target row — a superset-support proposal, the ideal case) first, then
  one-click-apart / high-overlap sets by how few rows they miss.
* :class:`PoolAdapter` — on a repository miss, looks up live donor keys,
  reweights each candidate's pool with the noise-model likelihood ratio
  (weight ``∝ (1 − ψ)^x`` for ``x`` violated target preferences), measures
  the Kish effective sample size of the result, and serves the best adapted
  pool only when its ESS clears the configured floor — otherwise the caller
  falls back to a fresh key-deterministic fill.
* :class:`AdaptationConfig` / :class:`AdaptationStats` — tuning knobs and
  the reuse-rate accounting the CI bench gate pins.

Adapted pools are **clearly marked** (``stats["sampler"] == "adapted"``, the
donor key and measured ESS recorded alongside) and — because the snapshot
pool table is content-addressed — carry a distinct content digest, so they
are never silently mistaken for the key-deterministic fresh build of their
key (the PR 4 restore invariant).  Like maintained pools, they are
history-dependent: a reference snapshot that can no longer resolve one
re-fills fresh, the documented miss path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.sampling.base import FINGERPRINT_PRECISION, ConstraintSet, SamplePool
from repro.sampling.reweight import importance_reweight, pool_effective_sample_size

__all__ = [
    "AdaptationConfig",
    "AdaptationStats",
    "ConstraintSimilarityIndex",
    "DonorCandidate",
    "PoolAdapter",
]

#: Canonical constraint rows: rounded direction tuples, the same normal form
#: :meth:`ConstraintSet.fingerprint` hashes (order-free, −0.0 folded to +0.0).
ConstraintRows = FrozenSet[Tuple[float, ...]]

#: How many of the structurally nearest donor candidates are reweighted and
#: ESS-scored per miss (each costs one ``(N, m) @ (m, c)`` pass).
MAX_DONORS = 4

#: Adapted pools are stored under their keys and can later donate again.
#: Composed weights keep the accumulated imbalance visible to the ESS gate,
#: but every hop narrows support in ways no weight profile can show — so
#: donors that are themselves this many adaptations deep are refused and the
#: miss falls back to maintenance / a fresh fill.
MAX_CHAIN_DEPTH = 2


@dataclass(frozen=True)
class AdaptationConfig:
    """Tuning of the approximate pool-reuse subsystem.

    Attributes
    ----------
    psi:
        The §7 noise-model correctness probability used for reweighting.
        Lower ψ keeps more weight on samples that violate target preferences
        (feedback is less trusted); ψ = 1 reduces reweighting to hard
        survival.  This is the *serving-side* belief about feedback noise and
        may deliberately differ from the elicitation config's ``noise_psi``.
    min_ess_fraction:
        ESS floor as a fraction of the requested pool size: an adapted pool
        is served only when its Kish effective sample size is at least
        ``min_ess_fraction × count``; below it the caller samples fresh.
    """

    psi: float = 0.9
    min_ess_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")
        if not 0.0 < self.min_ess_fraction <= 1.0:
            raise ValueError(
                f"min_ess_fraction must be in (0, 1], got {self.min_ess_fraction}"
            )


@dataclass(frozen=True)
class DonorCandidate:
    """One donor pool ranked against a target constraint set.

    ``missing`` counts target rows the donor never saw — the reweighting
    factors absorb those.  ``extra`` counts donor rows absent from the target
    — those *restricted the donor's support*, which no reweighting can undo,
    so they dominate the ranking.  ``shared`` rows are common to both.
    """

    key: str
    shared: int
    missing: int
    extra: int

    @property
    def rank_key(self) -> Tuple[int, int, int]:
        """Sort key: fewest support-restricting rows first, then fewest missing."""
        return (self.extra, self.missing, -self.shared)

    @property
    def is_prefix(self) -> bool:
        """Whether the donor's constraints are a subset of the target's."""
        return self.extra == 0


class ConstraintSimilarityIndex:
    """Inverse mapping from live pool keys back to constraint structure.

    :meth:`ConstraintSet.fingerprint` is a one-way hash, so similarity between
    pool keys cannot be computed from the keys alone.  The engine registers
    every ``(key, constraints, count)`` triple it derives (pool provisioning,
    warm start — they all funnel through one key helper),
    and the index stores the *canonical rows* of each set: direction tuples
    rounded exactly as the fingerprint rounds them, so two registrations that
    would collide to one fingerprint also collide to one row set here.

    Entries are tiny (one frozenset of tuples per distinct key) but a
    long-lived engine derives unboundedly many distinct keys, so the index
    is a bounded recency window: registrations beyond ``capacity`` evict the
    least recently touched key.  Useful donors are live repository keys —
    themselves LRU-bounded — so a capacity a few multiples of the pool
    budget loses nothing.  Lookups intersect row sets, which at
    serving-layer constraint counts (tens of rows) is negligible next to
    one pool fill.
    """

    def __init__(self, capacity: int = 4_096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[ConstraintRows, int, int]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------ registration
    def rows_of(self, constraints: ConstraintSet) -> ConstraintRows:
        """The canonical (rounded, sign-normalised) row set of a constraint set."""
        rounded = np.round(constraints.directions, FINGERPRINT_PRECISION)
        rounded += 0.0  # fold -0.0 to +0.0, mirroring fingerprint()
        return frozenset(tuple(row) for row in rounded.tolist())

    def register(
        self, key: str, constraints: ConstraintSet, count: int
    ) -> None:
        """Remember the constraint structure behind ``key`` (idempotent).

        Re-registering refreshes the key's recency; beyond ``capacity`` the
        least recently touched registration is dropped.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = (
            self.rows_of(constraints),
            constraints.num_features,
            int(count),
        )
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def forget(self, key: str) -> bool:
        """Drop a registration; returns whether one existed."""
        return self._entries.pop(key, None) is not None

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ----------------------------------------------------------------- lookup
    def candidates(
        self,
        constraints: ConstraintSet,
        count: int,
        live_keys: Iterable[str],
        max_candidates: int,
    ) -> List[DonorCandidate]:
        """The nearest registered donors among ``live_keys``, best first.

        Candidates must match the target's pool size and dimensionality.  A
        donor is admitted only while its shared rows are at least its extra
        (support-restricting) rows — a donor mostly constrained by directions
        the target never asserted is a biased proposal no ESS check can see,
        because support holes do not show up in realised weights.  The empty
        target set is the one exception: it is served by warm pools, and any
        restricted donor would be strictly biased, so no donors are offered.
        """
        if max_candidates <= 0:
            return []
        target_rows = self.rows_of(constraints)
        if not target_rows:
            return []
        scored: List[DonorCandidate] = []
        for key in live_keys:
            entry = self._entries.get(key)
            if entry is None:
                continue
            donor_rows, num_features, donor_count = entry
            if num_features != constraints.num_features or donor_count != count:
                continue
            shared = len(donor_rows & target_rows)
            extra = len(donor_rows) - shared
            if extra > shared:
                continue
            scored.append(
                DonorCandidate(
                    key=key,
                    shared=shared,
                    missing=len(target_rows) - shared,
                    extra=extra,
                )
            )
        scored.sort(key=lambda cand: cand.rank_key)
        return scored[:max_candidates]


@dataclass
class AdaptationStats:
    """Counters describing how repository misses were (not) adapted."""

    attempts: int = 0
    adapted: int = 0
    no_donor: int = 0
    low_ess: int = 0
    chain_capped: int = 0
    prefix_donors: int = 0
    ess_served_sum: float = 0.0
    samples_reused: int = 0

    @property
    def reuse_rate(self) -> float:
        """Fraction of adaptation attempts that served an adapted pool."""
        if not self.attempts:
            return 0.0
        return self.adapted / self.attempts

    @property
    def mean_served_ess(self) -> float:
        """Mean effective sample size of the adapted pools actually served."""
        if not self.adapted:
            return 0.0
        return self.ess_served_sum / self.adapted

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "adapted": self.adapted,
            "no_donor": self.no_donor,
            "low_ess": self.low_ess,
            "chain_capped": self.chain_capped,
            "prefix_donors": self.prefix_donors,
            "samples_reused": self.samples_reused,
            "reuse_rate": round(self.reuse_rate, 4),
            "mean_served_ess": round(self.mean_served_ess, 2),
        }


class PoolAdapter:
    """Serve repository misses from reweighted near-miss donor pools.

    Parameters
    ----------
    repository:
        The live pool repository donors are peeked from (never mutated here —
        the engine decides what to store).
    index:
        The similarity index the engine registers pool keys into.
    config:
        Reweighting / gating parameters.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` facade; when set, ESS-gate
        rejections fire an ``adaptation_ess_rejected`` alarm (counter plus
        structured trace event).
    """

    def __init__(
        self,
        repository,
        index: ConstraintSimilarityIndex,
        config: Optional[AdaptationConfig] = None,
        telemetry=None,
    ) -> None:
        self.repository = repository
        self.index = index
        self.config = config if config is not None else AdaptationConfig()
        self.stats = AdaptationStats()
        self.telemetry = telemetry

    # ------------------------------------------------------------------ core
    def adapt(
        self, key: str, constraints: ConstraintSet, count: int
    ) -> Optional[SamplePool]:
        """An adapted pool for ``(constraints, count)``, or ``None`` to fill fresh.

        Reweights up to :data:`MAX_DONORS` of the structurally nearest
        live donor pools and serves the one with the highest effective sample
        size, provided it clears ``min_ess_fraction × count``.  The returned
        pool is a new object (donor pools stay untouched in the repository),
        marked ``stats["sampler"] = "adapted"`` with its donor key and ESS.
        """
        config = self.config
        self.stats.attempts += 1
        live_keys = [k for k in self.repository.keys() if k != key]
        candidates = self.index.candidates(
            constraints, count, live_keys, MAX_DONORS
        )
        best: Optional[SamplePool] = None
        best_ess = -1.0
        best_candidate: Optional[DonorCandidate] = None
        best_depth = 0
        chain_capped = False
        for candidate in candidates:
            donor = self.repository.peek(candidate.key)
            if donor is None or donor.size == 0:
                continue
            # Adapted pools may donate onward, but only to a bounded depth:
            # each hop narrows support in ways the composed weight profile
            # cannot fully show (see MAX_CHAIN_DEPTH).
            donor_depth = int(donor.stats.get("adaptation_depth", 0))
            if donor_depth >= MAX_CHAIN_DEPTH:
                chain_capped = True
                continue
            adapted = importance_reweight(donor, constraints, config.psi)
            ess = pool_effective_sample_size(adapted)
            if ess > best_ess:
                best, best_ess, best_candidate = adapted, ess, candidate
                best_depth = donor_depth + 1
        if best is None or best_candidate is None:
            if chain_capped:
                self.stats.chain_capped += 1
            else:
                self.stats.no_donor += 1
            return None
        if best_ess < config.min_ess_fraction * count:
            self.stats.low_ess += 1
            if self.telemetry is not None:
                self.telemetry.alarm(
                    "adaptation_ess_rejected",
                    key=key,
                    ess=round(best_ess, 3),
                    required=round(config.min_ess_fraction * count, 3),
                )
            return None
        best.stats.update(
            {
                "sampler": "adapted",
                "adapted_from": best_candidate.key,
                "adaptation_ess": round(best_ess, 3),
                "adaptation_psi": config.psi,
                "adaptation_shared": best_candidate.shared,
                "adaptation_missing": best_candidate.missing,
                "adaptation_extra": best_candidate.extra,
                "adaptation_depth": best_depth,
            }
        )
        self.stats.adapted += 1
        self.stats.prefix_donors += int(best_candidate.is_prefix)
        self.stats.ess_served_sum += best_ess
        self.stats.samples_reused += best.size
        return best

"""Vectorised batch ``Top-k-Pkg``: one shared walk for many weight vectors.

With the serving engine's shared sample-pool cache in place, the dominant
per-round cost is running ``Top-k-Pkg`` once per posterior weight sample —
N near-identical package searches over one catalog.  The sequential
:class:`~repro.topk.package_search.TopKPackageSearcher` spends almost all of
that time in per-candidate Python: every accessed item triggers
``state_utility``/``upper-exp`` calls for every queue entry, repeated N times.

:class:`BatchTopKPackageSearcher` restructures the search so the repeated
work is shared and the per-candidate work is NumPy row-wise:

* **Shared walk.**  Each weight vector keeps its own round-robin cursor over
  the per-feature sorted lists (its access order and boundary vector τ are
  exactly the sequential algorithm's), but the cursors advance in lockstep
  *rounds* — one new item per still-active vector per round.
* **Shared candidate pool.**  Candidate packages are kept once, in
  struct-of-arrays form (``sums`` / ``mins`` / ``maxs`` / ``sizes`` matrices),
  instead of once per weight vector.  Utilities of every candidate under
  every weight vector are matrix products; the ``upper-exp`` bound of §4
  (padding a candidate with copies of the boundary item τ) is evaluated for
  all candidates × vectors at once from a closed form over the aggregation
  types (sum/avg parts are affine in the number of pads r, min/max parts are
  constant for r ≥ 1), so one small loop over r = 1..φ replaces the
  per-candidate Python padding loop.
* **Active-mask early termination.**  Per vector v the usual bounds are
  maintained: ``η_lo[v]`` is the k-th best utility among discovered
  reportable candidates, ``η_up[v]`` the best ``upper-exp`` bound over the
  expandable queue.  As soon as ``η_up[v] ≤ η_lo[v]`` (or v's lists are
  exhausted, or its item cap is reached) v leaves the active mask: its
  cursor stops and it stops contributing columns to the bound matrices,
  while the remaining vectors keep walking.

Exactness.  The shared pool is a *superset* of every per-vector search's
candidate set: a candidate leaves the expandable queue only when **every**
active vector's bound says none of its completions can reach that vector's
top-k, and each vector's own termination test is unchanged.  Since the
sequential searcher (in its default exact configuration) and the batch
searcher both return the true top-k by utility with ties broken by package
id — and both report utilities through the same canonical scoring helper —
their results match exactly, package by package and score by score.  See
``tests/test_topk_batch.py`` for the property-style equivalence suite and
DESIGN.md ("Batched top-k search") for the data layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.packages import Package, PackageEvaluator
from repro.core.predicates import PredicateSet
from repro.core.profiles import Aggregation
from repro.core.utility import LinearUtility
from repro.topk.package_search import (
    PackageSearchResult,
    TopKPackageSearcher,
    canonical_package_vectors,
    null_aware_boundary,
)
from repro.topk.sorted_lists import FilteredOrderSource, SortedItemLists

__all__ = ["BatchTopKPackageSearcher"]


class _BatchState:
    """Mutable per-run state: cursors, bounds, and the shared candidate queue.

    The expandable queue Q+ is held in struct-of-arrays form so candidate ×
    vector quantities come out of matrix products: ``sums``/``mins``/``maxs``/
    ``sizes`` describe each candidate's aggregation state exactly like
    :class:`~repro.core.packages.AggregationState`, while ``su``/``sa`` cache
    the candidate's sum-/avg-feature dot products against every weight vector
    (the τ-independent part of the ``upper-exp`` bound).  Row 0 is always the
    empty package — the seed for singletons of still-unseen items.
    """

    def __init__(self, searcher: "BatchTopKPackageSearcher", W: np.ndarray, k: int):
        ev = searcher.evaluator
        m = ev.num_features
        n = W.shape[0]
        aggs = ev.profile.aggregations
        self.k = k
        self.W = W
        self.phi = ev.max_package_size
        self.sum_mask = np.array([a is Aggregation.SUM for a in aggs])
        self.avg_mask = np.array([a is Aggregation.AVG for a in aggs])
        self.min_feats = [j for j, a in enumerate(aggs) if a is Aggregation.MIN]
        self.max_feats = [j for j, a in enumerate(aggs) if a is Aggregation.MAX]
        self.Wn = W / ev.normalisers  # utility = raw aggregate @ (w / normalisers)
        self.Wn_sum = self.Wn * self.sum_mask
        self.Wn_avg = self.Wn * self.avg_mask
        self.set_mono = np.array(
            [LinearUtility(W[v]).is_set_monotone(ev.profile) for v in range(n)]
        )
        self.lists = [
            SortedItemLists(
                ev.catalog, W[v], order_provider=searcher._order_source
            )
            for v in range(n)
        ]
        self.active = np.ones(n, dtype=bool)
        self.taus = np.zeros((n, m))

        self.discovered: set = set()  # non-empty candidate item-tuples, shared
        self.reportable: List[Tuple[int, ...]] = []
        self.top_vals = np.full((n, k), -np.inf)  # per-vector k best utilities
        self.eta_lo = np.full(n, -np.inf)

        self.q_items: List[Tuple[int, ...]] = [()]
        self.q_sums = np.zeros((1, m))
        self.q_mins = np.full((1, m), np.inf)
        self.q_maxs = np.full((1, m), -np.inf)
        self.q_sizes = np.zeros(1, dtype=int)
        self.q_slots = np.full((1, self.phi), -1, dtype=np.int64)
        self.q_su = np.zeros((1, n))
        self.q_sa = np.zeros((1, n))
        self.slot_of: Dict[int, int] = {}  # item index -> membership slot

    def observe(self, utilities: np.ndarray) -> None:
        """Fold newly discovered reportable utilities into η_lo (k-th best)."""
        stacked = np.concatenate([self.top_vals, utilities.T], axis=1)
        self.top_vals = np.partition(stacked, stacked.shape[1] - self.k, axis=1)[
            :, -self.k:
        ]
        self.eta_lo = self.top_vals.min(axis=1)

    def append_queue(self, items, sums, mins, maxs, sizes, slots) -> None:
        self.q_items.extend(items)
        self.q_sums = np.concatenate([self.q_sums, sums])
        self.q_mins = np.concatenate([self.q_mins, mins])
        self.q_maxs = np.concatenate([self.q_maxs, maxs])
        self.q_sizes = np.concatenate([self.q_sizes, sizes])
        self.q_slots = np.concatenate([self.q_slots, slots])
        self.q_su = np.concatenate([self.q_su, sums @ self.Wn_sum.T])
        self.q_sa = np.concatenate([self.q_sa, sums @ self.Wn_avg.T])

    def shrink_queue(self, keep: np.ndarray) -> None:
        """Restrict the queue to ``keep`` (boolean mask or index array)."""
        rows = np.flatnonzero(keep) if keep.dtype == bool else np.asarray(keep)
        self.q_items = [self.q_items[i] for i in rows]
        self.q_sums, self.q_mins = self.q_sums[rows], self.q_mins[rows]
        self.q_maxs, self.q_sizes = self.q_maxs[rows], self.q_sizes[rows]
        self.q_slots = self.q_slots[rows]
        self.q_su, self.q_sa = self.q_su[rows], self.q_sa[rows]


class BatchTopKPackageSearcher:
    """Run ``Top-k-Pkg`` for a whole matrix of weight vectors in one pass.

    Parameters
    ----------
    evaluator:
        Binds the item catalog, the aggregate profile and the maximum package
        size φ (same contract as :class:`TopKPackageSearcher`).
    predicates:
        Optional package-schema predicates (§7); candidates violating them are
        discovered but never reported.
    max_candidates:
        Safety cap on the number of *distinct* candidate packages materialised
        across the whole batch; when exceeded the search stops and reports the
        best packages found so far (graceful degradation, as in the sequential
        searcher).
    beam_width:
        Optional *per-vector* beam, matching the sequential searcher's
        parameter: the shared expandable queue is capped at ``beam_width ×
        (number of distinct non-zero weight vectors)``, so a batch of N
        vectors gets the same total candidate budget N sequential beam
        searches would have.  When the cap binds, the candidates with the
        best ``upper-exp`` bound under *any* active vector are kept.
        ``None`` (default) keeps the search exact.  A finite beam is a
        bounded-work anytime mode — not bit-compatible with the sequential
        searcher's independent per-vector queues, since the budget is pooled.
    max_items_accessed:
        Optional per-vector cap on items read from the sorted lists; a vector
        reaching the cap terminates with its best-so-far results.
    catalog_predicate:
        Optional item-eligibility predicate
        (:class:`repro.data.columnar.CatalogPredicate`) pushed down into
        every cursor's sorted lists, exactly as in the sequential searcher.

    Notes
    -----
    :meth:`search_many` deduplicates identical weight rows (MCMC pools repeat
    the chain state on rejection) and delegates all-zero rows to the
    sequential searcher's deterministic zero-weight path, so degenerate pools
    behave identically to per-vector search.
    """

    def __init__(
        self,
        evaluator: PackageEvaluator,
        predicates: Optional[PredicateSet] = None,
        max_candidates: int = 200_000,
        beam_width: Optional[int] = None,
        max_items_accessed: Optional[int] = None,
        catalog_predicate=None,
    ) -> None:
        self.evaluator = evaluator
        self.predicates = predicates
        if max_candidates <= 0:
            raise ValueError(f"max_candidates must be > 0, got {max_candidates}")
        self.max_candidates = max_candidates
        if beam_width is not None and beam_width <= 0:
            raise ValueError(f"beam_width must be > 0 or None, got {beam_width}")
        self.beam_width = beam_width
        if max_items_accessed is not None and max_items_accessed <= 0:
            raise ValueError(
                f"max_items_accessed must be > 0 or None, got {max_items_accessed}"
            )
        self.max_items_accessed = max_items_accessed
        self._null_columns = evaluator.catalog.null_mask.any(axis=0)
        self.catalog_predicate = catalog_predicate
        #: The eligible item indices as one read-only array (``None`` without
        #: a predicate): every recommender sharing this searcher draws its
        #: exploration packages from it.
        self.eligible_items: Optional[np.ndarray] = None
        if catalog_predicate is None:
            self._eligible_mask: Optional[np.ndarray] = None
        else:
            mask = np.asarray(
                catalog_predicate.eligible_mask(evaluator.catalog), dtype=bool
            )
            if mask.shape != (evaluator.catalog.num_items,):
                raise ValueError(
                    "catalog_predicate mask has shape "
                    f"{mask.shape}, expected ({evaluator.catalog.num_items},)"
                )
            self._eligible_mask = mask
            self.eligible_items = np.flatnonzero(mask)
            self.eligible_items.flags.writeable = False
        self._order_source = FilteredOrderSource(
            evaluator.catalog, self._eligible_mask
        )
        #: Summary of the most recent :meth:`_search_flat` call (row counts,
        #: dedup rate, items accessed) — read by the engine's telemetry
        #: layer to annotate ``search.topk`` spans.  ``None`` until a search
        #: runs; plain data, never consulted by the search itself.
        self.last_search_stats: Optional[dict] = None

    # -------------------------------------------------------------- public API
    def search(self, weights: np.ndarray, k: int) -> PackageSearchResult:
        """Single-vector convenience wrapper around :meth:`search_many`."""
        return self.search_many(np.atleast_2d(np.asarray(weights, dtype=float)), k)[0]

    def search_many(
        self, weights_matrix: np.ndarray, k: int
    ) -> List[PackageSearchResult]:
        """Top-k packages for every row of ``weights_matrix``, walking once.

        Returns one :class:`PackageSearchResult` per input row, in row order.
        ``items_accessed`` is per vector (its own cursor's count);
        ``candidates_generated`` is the shared pool's distinct-candidate
        count, which every row of the batch reports.
        """
        return self._search_flat(weights_matrix, k)

    def search_pools(
        self, matrices: Sequence[np.ndarray], k: int
    ) -> List[List[PackageSearchResult]]:
        """Top-k packages for several weight matrices in one shared walk.

        The across-session entry point: ``matrices`` holds one ``(N_i, m)``
        weight matrix per sample pool (e.g. one per cache-missing serving
        session), and all of them are searched as a single concatenated batch
        — one sorted-list walk, one shared candidate pool, one deduplication
        of identical weight rows *across* pools (heterogeneous sessions still
        overlap heavily: MCMC pools repeat states, and sessions one click
        apart share most of their posterior mass).  Results come back split
        per input matrix, in row order.

        In the default exact configuration each row's result is the same as
        :meth:`search_many` of its own matrix would return: per-vector
        termination only depends on the vector's own bounds, and every
        vector's top-k is the true top-k.  Bounded-work runs may differ,
        because the walk shares its candidates across the whole batch — the
        same caveat batching within one pool already carries.  A finite
        ``beam_width`` pools the candidate budget over every matrix, and a
        vector stopped by ``max_items_accessed`` reports its best among the
        candidates the *whole* walk discovered, which includes extensions
        other pools' vectors created.
        """
        mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
        for matrix in mats:
            if matrix.ndim != 2 or matrix.shape[1] != self.evaluator.num_features:
                raise ValueError(
                    f"every pool matrix must have shape (N, "
                    f"{self.evaluator.num_features}), got {matrix.shape}"
                )
        if not mats:
            return []
        flat = self._search_flat(np.concatenate(mats, axis=0), k)
        bounds = np.cumsum([0] + [m.shape[0] for m in mats])
        return [flat[bounds[i]:bounds[i + 1]] for i in range(len(mats))]

    def _search_flat(
        self, weights_matrix: np.ndarray, k: int
    ) -> List[PackageSearchResult]:
        """Results of one deduplicated batch search, in row order."""
        matrix = np.atleast_2d(np.asarray(weights_matrix, dtype=float))
        if matrix.ndim != 2 or matrix.shape[1] != self.evaluator.num_features:
            raise ValueError(
                f"weights_matrix must have shape (N, {self.evaluator.num_features}), "
                f"got {matrix.shape}"
            )
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if matrix.shape[0] == 0:
            return []
        unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
        unique_results = self._search_unique(unique, k)
        rows = int(matrix.shape[0])
        unique_rows = int(unique.shape[0])
        self.last_search_stats = {
            "rows": rows,
            "unique_rows": unique_rows,
            "dedup_rate": round(1.0 - unique_rows / rows, 4),
            "items_accessed": int(
                sum(result.items_accessed for result in unique_results)
            ),
        }
        return [unique_results[j] for j in np.ravel(inverse)]

    # ---------------------------------------------------------- orchestration
    def _search_unique(self, W: np.ndarray, k: int) -> List[PackageSearchResult]:
        results: List[Optional[PackageSearchResult]] = [None] * W.shape[0]
        zero_rows = [v for v in range(W.shape[0]) if not np.any(W[v])]
        nonzero_rows = [v for v in range(W.shape[0]) if np.any(W[v])]
        if zero_rows:
            # All-zero weights have no sorted-list walk; reuse the sequential
            # searcher's deterministic smallest-ids path so results agree.
            fallback = TopKPackageSearcher(
                self.evaluator,
                predicates=self.predicates,
                max_candidates=self.max_candidates,
                catalog_predicate=self.catalog_predicate,
            )
            for v in zero_rows:
                results[v] = fallback.search(W[v], k)
        if nonzero_rows:
            batch = self._run(W[nonzero_rows], k)
            for v, result in zip(nonzero_rows, batch):
                results[v] = result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------- core search
    def _run(self, W: np.ndarray, k: int) -> List[PackageSearchResult]:
        state = _BatchState(self, W, k)
        while state.active.any():
            new_items = self._advance_cursors(state)
            if not state.active.any():
                break
            for item, cols in new_items.items():
                self._expand_with_item(state, item, np.asarray(cols, dtype=int))
            self._prune_and_terminate(state)
            if len(state.discovered) > self.max_candidates:
                break
        return self._collect(state)

    def _advance_cursors(self, state: _BatchState) -> Dict[int, List[int]]:
        """Read one new item per active vector; returns item -> accessing vectors."""
        new_items: Dict[int, List[int]] = {}
        for v in np.flatnonzero(state.active):
            if (
                self.max_items_accessed is not None
                and state.lists[v].num_accessed >= self.max_items_accessed
            ):
                state.active[v] = False
                continue
            item = state.lists[v].next_item()
            if item is None:
                state.active[v] = False
                continue
            state.taus[v] = null_aware_boundary(
                state.lists[v].boundary_vector(), state.W[v],
                self.evaluator.profile, self._null_columns,
            )
            new_items.setdefault(item, []).append(v)
        return new_items

    # --------------------------------------------------------------- expansion
    def _expand_with_item(
        self, state: _BatchState, item: int, cols: np.ndarray
    ) -> None:
        """One vectorised round of Algorithm 4 for one newly accessed item.

        ``cols`` are the weight vectors that accessed ``item`` this round: the
        extension gate (``max(utility, upper-exp) ≥ η_lo``) is evaluated
        against exactly those columns, mirroring the sequential algorithm, and
        an extension is materialised when any of them passes.  Extensions
        created for one vector stay visible to all: their exact utilities
        tighten every vector's η_lo and they compete in every vector's final
        ranking.
        """
        slot = state.slot_of.setdefault(item, len(state.slot_of))
        values = self.evaluator.catalog.features[item]
        null = np.isnan(values)
        contrib = np.where(null, 0.0, values)

        rows = np.flatnonzero(
            (state.q_sizes < state.phi) & ~(state.q_slots == slot).any(axis=1)
        )
        if rows.size == 0:
            return

        ext_sums = state.q_sums[rows] + contrib
        ext_mins = np.where(
            null, state.q_mins[rows], np.minimum(state.q_mins[rows], contrib)
        )
        ext_maxs = np.where(
            null, state.q_maxs[rows], np.maximum(state.q_maxs[rows], contrib)
        )
        ext_sizes = state.q_sizes[rows] + 1

        raw = self._raw_vectors(state, ext_sums, ext_mins, ext_maxs, ext_sizes)
        util_cols = raw @ state.Wn[cols].T  # own utilities, gate columns only
        bound_cols = self._padded_bounds(
            state,
            ext_sums @ state.Wn_sum[cols].T,
            ext_sums @ state.Wn_avg[cols].T,
            ext_mins, ext_maxs, ext_sizes, cols,
        )
        passes = np.maximum(util_cols, bound_cols) >= state.eta_lo[cols][None, :]
        kept = np.flatnonzero(passes.any(axis=1))
        if kept.size == 0:
            return

        new_rows: List[int] = []
        new_tuples: List[Tuple[int, ...]] = []
        for r in kept:
            package_items = tuple(sorted(state.q_items[rows[r]] + (item,)))
            if package_items in state.discovered:
                continue
            state.discovered.add(package_items)
            new_rows.append(r)
            new_tuples.append(package_items)
        if not new_rows:
            return
        new_idx = np.asarray(new_rows, dtype=int)

        # Fold the new candidates' utilities (under every vector) into η_lo.
        rep_mask = np.array([self._reportable(t) for t in new_tuples])
        if rep_mask.any():
            state.reportable.extend(
                t for t, keep in zip(new_tuples, rep_mask) if keep
            )
            state.observe(raw[new_idx[rep_mask]] @ state.Wn.T)

        # Queue the still-growable new candidates; the end-of-round bound
        # recomputation prunes any that cannot reach a surviving top-k.
        grow = np.flatnonzero(ext_sizes[new_idx] < state.phi)
        if grow.size:
            g = new_idx[grow]
            slots = state.q_slots[rows[g]].copy()
            slots[np.arange(g.size), ext_sizes[g] - 1] = slot
            state.append_queue(
                [new_tuples[i] for i in grow],
                ext_sums[g], ext_mins[g], ext_maxs[g], ext_sizes[g], slots,
            )

    # ------------------------------------------------- pruning and termination
    def _prune_and_terminate(self, state: _BatchState) -> None:
        """Recompute queue bounds against the moved τs; prune, beam, terminate."""
        act = np.flatnonzero(state.active)
        bounds = self._padded_bounds(
            state,
            state.q_su[:, act], state.q_sa[:, act],
            state.q_mins, state.q_maxs, state.q_sizes, act,
        )
        keep = (bounds >= state.eta_lo[act][None, :]).any(axis=1)
        keep[0] = True  # the empty package always stays
        eta_up = bounds[keep].max(axis=0)
        state.active[act[eta_up <= state.eta_lo[act]]] = False
        if not keep.all():
            bounds = bounds[keep]
            state.shrink_queue(keep)
        if self.beam_width is not None:
            # beam_width is per vector (as in the sequential searcher); the
            # shared queue gets the batch's pooled budget so minority vectors
            # are not squeezed N times harder than they would be alone.
            shared_cap = self.beam_width * state.W.shape[0]
            if len(state.q_items) - 1 > shared_cap:
                scored = bounds.max(axis=1)
                scored[0] = np.inf  # pin the empty package
                top = np.argsort(-scored, kind="stable")[: shared_cap + 1]
                state.shrink_queue(np.sort(top))

    # ------------------------------------------------------------------ bounds
    def _padded_bounds(
        self,
        state: _BatchState,
        su: np.ndarray,
        sa: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        sizes: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Vectorised Algorithm 3 with ``force_first`` (≥ 1 copy of τ).

        Padding a candidate with r copies of the boundary item τ_v decomposes
        by aggregation type: sum features contribute ``su + r·a(v)``, avg
        features ``(sa + r·b(v)) / (size + r)``, and min/max features are
        constant in r once one τ is added (``min(mins, τ)`` / ``max(maxs,
        τ)``; the ±inf empty-state sentinels make the no-value case collapse
        to τ itself).  Set-monotone vectors take the full padding r = φ−size;
        the rest take the maximum over r, which matches the sequential
        first-non-positive-gain stop whenever the gains are non-increasing
        (Lemma 3) and is a valid — merely looser — upper bound otherwise.
        Rows already at size φ stay at −inf: no completion containing an
        unaccessed item exists for them.

        NaN entries of τ mark features where a *null* contribution dominates
        the boundary value (see :func:`null_aware_boundary`): they add nothing
        to the sum/avg parts and leave the min/max running aggregates — and
        hence their "no value yet" sentinels — untouched, exactly like
        ``AggregationState.add`` treats a null.
        """
        tau_c = state.taus[cols]  # (V, m)
        wn_c = state.Wn[cols]
        tau_filled = np.where(np.isnan(tau_c), 0.0, tau_c)
        a = np.einsum("vj,vj->v", tau_filled, state.Wn_sum[cols])
        b = np.einsum("vj,vj->v", tau_filled, state.Wn_avg[cols])

        mm = np.zeros_like(su)
        for j in state.min_feats:
            padded = np.minimum.outer(mins[:, j], tau_c[:, j])  # no value -> τ
            if self._null_columns[j]:
                # Nullable min features, resolved per candidate exactly like
                # the sequential _upper_exp: a positive weight keeps the
                # candidate's minimum once one exists (a null pad beats
                # lowering it toward τ), a negative weight skips the feature
                # entirely while no value exists (aggregate stays 0).
                has_value = np.isfinite(mins[:, j])[:, None]
                keep = np.where(has_value, mins[:, j][:, None], 0.0)
                padded = np.where(
                    (wn_c[:, j] > 0)[None, :],
                    np.where(has_value, keep, padded),
                    np.where(has_value, padded, 0.0),
                )
            mm += padded * wn_c[:, j][None, :]
        for j in state.max_feats:
            # NaN τ entries (nullable max under a negative weight) keep the
            # candidate's maximum — or, with no value yet, an aggregate of 0.
            tau_j = np.where(np.isnan(tau_c[:, j]), -np.inf, tau_c[:, j])
            padded = np.maximum.outer(maxs[:, j], tau_j)
            padded[~np.isfinite(padded)] = 0.0
            mm += padded * wn_c[:, j][None, :]

        remaining = state.phi - sizes  # (C,)
        best = np.full(su.shape, -np.inf)
        mono = state.set_mono[cols]
        for r in range(1, state.phi + 1):
            valid = r <= remaining
            if not valid.any():
                break
            val = (
                su + r * a[None, :]
                + (sa + r * b[None, :]) / (sizes + r)[:, None]
                + mm
            )
            np.maximum(best, val, out=best, where=valid[:, None] & ~mono[None, :])
            final = remaining == r
            if final.any() and mono.any():
                np.copyto(best, val, where=final[:, None] & mono[None, :])
        return best

    # ----------------------------------------------------------------- helpers
    def _raw_vectors(
        self,
        state: _BatchState,
        sums: np.ndarray,
        mins: np.ndarray,
        maxs: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Unnormalised aggregate vectors for a block of candidate states."""
        raw = np.where(state.sum_mask, sums, 0.0)
        if state.avg_mask.any():
            sizes_col = np.maximum(sizes, 1)[:, None]
            raw = np.where(state.avg_mask, sums / sizes_col, raw)
        for j in state.min_feats:
            raw[:, j] = np.where(np.isfinite(mins[:, j]), mins[:, j], 0.0)
        for j in state.max_feats:
            raw[:, j] = np.where(np.isfinite(maxs[:, j]), maxs[:, j], 0.0)
        return raw

    def _reportable(self, package_items: Tuple[int, ...]) -> bool:
        if not package_items:
            return False
        if self.predicates is None:
            return True
        return self.predicates.satisfied_by(
            Package(package_items), self.evaluator.catalog
        )

    # ------------------------------------------------------------------ results
    def _collect(self, state: _BatchState) -> List[PackageSearchResult]:
        """Rank the discovered reportable candidates per vector.

        Canonical package vectors are computed once; per vector the utilities
        are accumulated feature by feature (bit-identical to
        :func:`canonical_package_utilities`, without materialising a
        candidates × vectors matrix) and only the candidates that can reach
        rank k — the k best by utility plus everything tied with the k-th —
        are sorted, so the collect phase stays cheap even when the search
        discovered far more candidates than it reports.
        """
        reportable = state.reportable
        count = len(reportable)
        vectors = canonical_package_vectors(self.evaluator, reportable)
        id_rank = np.empty(count, dtype=int)
        id_rank[sorted(range(count), key=lambda i: reportable[i])] = np.arange(count)
        results = []
        for v in range(state.W.shape[0]):
            utilities = np.zeros(count)
            for j in range(self.evaluator.num_features):
                utilities += vectors[:, j] * state.W[v, j]
            if count > state.k:
                kth = -np.partition(-utilities, state.k - 1)[state.k - 1]
                contenders = np.flatnonzero(utilities >= kth)
            else:
                contenders = np.arange(count)
            order = contenders[
                np.lexsort((id_rank[contenders], -utilities[contenders]))
            ][: state.k]
            results.append(
                PackageSearchResult(
                    packages=[Package(reportable[i]) for i in order],
                    utilities=[float(utilities[i]) for i in order],
                    items_accessed=state.lists[v].num_accessed,
                    candidates_generated=len(state.discovered),
                )
            )
        return results

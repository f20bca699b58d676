"""Batch/sequential ``Top-k-Pkg`` equivalence (the contract of the batch path).

The batch searcher must be a pure performance optimisation: for every weight
vector, its result has to match what the sequential searcher computes for
that vector alone.  The equivalence contract asserted here is exact:

* **Scores**: the utility lists are *bit-identical* (both searchers report
  through the same canonical scoring helper, so equality is ``==``, not
  ``allclose``).
* **Packages**: identical for every rank whose utility is strictly above the
  k-th utility value.  Packages tied *exactly at* the k-th utility are the
  one place the algorithms may legitimately differ: the paper's termination
  rule (``η_up ≤ η_lo``) stops as soon as no undiscovered package can beat
  the k-th best, which means boundary ties are reported in discovery order —
  and the two implementations discover in different orders.  Where the tie
  set is fully enumerated (small catalogs searched to exhaustion), both
  implementations break ties identically by package id and the package lists
  match outright.
* **Exactness**: both sides equal the brute-force oracle's utilities.
"""

import numpy as np
import pytest

from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.predicates import MinCountPredicate, PredicateSet
from repro.core.profiles import AggregateProfile
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.topk.bruteforce import brute_force_top_k_packages
from repro.topk.package_search import TopKPackageSearcher

AGGREGATIONS = ["sum", "avg", "max", "min"]


def random_instance(seed):
    """A random catalog/profile/weights instance, with nulls on some seeds."""
    rng = np.random.default_rng(seed)
    num_items = int(rng.integers(6, 15))
    num_features = int(rng.integers(2, 5))
    phi = int(rng.integers(2, 5))
    features = rng.random((num_items, num_features))
    if seed % 3 == 0:
        mask = rng.random((num_items, num_features)) < 0.15
        features[mask] = np.nan
        if np.isnan(features).all(axis=0).any():
            features[0] = rng.random(num_features)
    catalog = ItemCatalog(features)
    profile = AggregateProfile(
        [AGGREGATIONS[int(rng.integers(0, 4))] for _ in range(num_features)]
    )
    evaluator = PackageEvaluator(catalog, profile, phi)
    num_vectors = int(rng.integers(1, 8))
    k = int(rng.integers(1, 6))
    weights = rng.uniform(-1, 1, (num_vectors, num_features))
    if seed % 4 == 0:
        weights[0] = 0.0  # degenerate all-zero row
    if num_vectors > 2:
        weights[-1] = weights[0]  # duplicate row (exercises dedup)
    return evaluator, weights, k


def assert_equivalent(sequential_result, batch_result):
    """Exact-score equality plus package equality above the tie boundary."""
    assert sequential_result.utilities == batch_result.utilities
    utilities = sequential_result.utilities
    if not utilities:
        assert not batch_result.packages
        return
    boundary = utilities[-1]
    strict = sum(1 for value in utilities if value > boundary)
    assert (
        [p.items for p in sequential_result.packages[:strict]]
        == [p.items for p in batch_result.packages[:strict]]
    )


class TestPropertyEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances_match_per_vector_search(self, seed):
        evaluator, weights, k = random_instance(seed)
        sequential = TopKPackageSearcher(evaluator)
        batch = BatchTopKPackageSearcher(evaluator)
        batch_results = batch.search_many(weights, k)
        assert len(batch_results) == weights.shape[0]
        for v in range(weights.shape[0]):
            assert_equivalent(sequential.search(weights[v], k), batch_results[v])

    @pytest.mark.parametrize("seed", range(0, 60, 5))
    def test_both_match_the_brute_force_oracle(self, seed):
        evaluator, weights, k = random_instance(seed)
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, k)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(weights.shape[0]):
            expected = [u for _, u in brute_force_top_k_packages(evaluator, weights[v], k)]
            assert np.allclose(batch_results[v].utilities, expected, atol=1e-9)
            assert np.allclose(sequential.search(weights[v], k).utilities, expected, atol=1e-9)

    def test_search_many_matches_sequential_search_many(self):
        evaluator, weights, k = random_instance(7)
        sequential = TopKPackageSearcher(evaluator).search_many(weights, k)
        batch = BatchTopKPackageSearcher(evaluator).search_many(weights, k)
        for s, b in zip(sequential, batch):
            assert_equivalent(s, b)


class TestSearchPools:
    """The multi-pool entry point used for across-session search batching."""

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_concatenated_pools_match_per_pool_search(self, seed):
        evaluator, weights, k = random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        matrices = [
            weights,
            rng.uniform(-1, 1, (3, weights.shape[1])),
            weights[:1] + rng.normal(0, 0.1, (2, weights.shape[1])),
        ]
        searcher = BatchTopKPackageSearcher(evaluator)
        pooled = searcher.search_pools(matrices, k)
        assert len(pooled) == len(matrices)
        for matrix, results in zip(matrices, pooled):
            assert len(results) == matrix.shape[0]
            solo = searcher.search_many(matrix, k)
            for s, b in zip(solo, results):
                assert s.utilities == b.utilities

    def test_duplicate_rows_across_pools_share_results(self):
        evaluator, weights, k = random_instance(2)
        searcher = BatchTopKPackageSearcher(evaluator)
        pooled = searcher.search_pools([weights, weights.copy()], k)
        for a, b in zip(pooled[0], pooled[1]):
            assert a.utilities == b.utilities
            assert [p.items for p in a.packages] == [p.items for p in b.packages]

    def test_empty_pool_list(self):
        evaluator, _weights, k = random_instance(3)
        assert BatchTopKPackageSearcher(evaluator).search_pools([], k) == []

    def test_rejects_wrong_width_matrix(self):
        evaluator, weights, k = random_instance(4)
        searcher = BatchTopKPackageSearcher(evaluator)
        bad = np.zeros((2, weights.shape[1] + 1))
        with pytest.raises(ValueError, match="pool matrix"):
            searcher.search_pools([weights, bad], k)


class TestDegenerateCases:
    def test_single_vector_batch_equals_search(self):
        evaluator, weights, k = random_instance(1)
        row = weights[0]
        sequential = TopKPackageSearcher(evaluator).search(row, k)
        via_many = BatchTopKPackageSearcher(evaluator).search_many(row[None, :], k)
        via_single = BatchTopKPackageSearcher(evaluator).search(row, k)
        assert_equivalent(sequential, via_many[0])
        assert_equivalent(sequential, via_single)

    def test_all_zero_weight_rows(self):
        rng = np.random.default_rng(3)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((8, 3))), AggregateProfile(["sum", "avg", "max"]), 3
        )
        weights = np.zeros((3, 3))
        weights[1] = rng.uniform(-1, 1, 3)
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 4)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 4)
            # zero rows: utility 0 everywhere, deterministic smallest-id packages
            assert [p.items for p in expected.packages] == [
                p.items for p in batch_results[v].packages
            ]
            assert expected.utilities == batch_results[v].utilities

    def test_k_larger_than_feasible_package_count(self):
        rng = np.random.default_rng(4)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((4, 2))), AggregateProfile(["sum", "min"]), 2
        )
        # 4 singletons + 6 pairs = 10 feasible packages, k far larger.
        weights = rng.uniform(-1, 1, (3, 2))
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 50)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 50)
            assert len(batch_results[v].packages) == len(expected.packages) <= 10
            assert_equivalent(expected, batch_results[v])

    def test_exact_tie_handling_on_duplicate_items(self):
        # Identical items make utilities tie exactly; on a catalog this small
        # both searchers enumerate the full tie set, so the deterministic
        # package-id tie-break must make the result lists identical.
        features = np.array([[0.5, 0.2]] * 4 + [[0.3, 0.1]] * 2)
        evaluator = PackageEvaluator(
            ItemCatalog(features), AggregateProfile(["sum", "avg"]), 2
        )
        weights = np.array([[0.8, -0.3], [-0.2, 0.6], [0.5, 0.5]])
        batch_results = BatchTopKPackageSearcher(evaluator).search_many(weights, 6)
        sequential = TopKPackageSearcher(evaluator)
        for v in range(3):
            expected = sequential.search(weights[v], 6)
            assert [p.items for p in expected.packages] == [
                p.items for p in batch_results[v].packages
            ]
            assert expected.utilities == batch_results[v].utilities

    def test_beam_and_item_cap_modes_run(self):
        # Bounded-work anytime modes: results are well-formed (sorted, within
        # caps) even though a shared beam is not bit-compatible with the
        # sequential per-vector beam.
        evaluator, weights, k = random_instance(5)
        searcher = BatchTopKPackageSearcher(
            evaluator, beam_width=2, max_items_accessed=5
        )
        results = searcher.search_many(weights, k)
        assert len(results) == weights.shape[0]
        for result in results:
            assert result.items_accessed <= 5
            assert all(
                first >= second
                for first, second in zip(result.utilities, result.utilities[1:])
            )

    def test_empty_matrix_returns_no_results(self):
        evaluator, _, _ = random_instance(2)
        assert BatchTopKPackageSearcher(evaluator).search_many(
            np.zeros((0, evaluator.num_features)), 3
        ) == []

    def test_wrong_width_and_bad_k_rejected(self):
        evaluator, weights, _ = random_instance(2)
        searcher = BatchTopKPackageSearcher(evaluator)
        with pytest.raises(ValueError):
            searcher.search_many(np.ones((2, evaluator.num_features + 1)), 3)
        with pytest.raises(ValueError):
            searcher.search_many(weights, 0)

    def test_invalid_construction_rejected(self):
        evaluator, _, _ = random_instance(2)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, max_candidates=0)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, beam_width=0)
        with pytest.raises(ValueError):
            BatchTopKPackageSearcher(evaluator, max_items_accessed=0)


class TestPredicates:
    def test_predicates_filter_batch_results(self):
        rng = np.random.default_rng(9)
        evaluator = PackageEvaluator(
            ItemCatalog(rng.random((10, 3))), AggregateProfile(["sum", "avg", "max"]), 3
        )
        predicates = PredicateSet([MinCountPredicate(1, matching_items=[0, 1, 2])])
        weights = rng.uniform(-1, 1, (4, 3))
        batch_results = BatchTopKPackageSearcher(
            evaluator, predicates=predicates
        ).search_many(weights, 3)
        sequential = TopKPackageSearcher(evaluator, predicates=predicates)
        for v in range(4):
            for package in batch_results[v].packages:
                assert any(item in (0, 1, 2) for item in package)
            assert_equivalent(sequential.search(weights[v], 3), batch_results[v])


class TestNullSoundness:
    """The τ bound must dominate null-valued unaccessed items (fixed this PR).

    A null contributes nothing to any aggregate, which beats the boundary
    value τ for negative-weight sum/avg/max features and interacts with min
    features per candidate; without the null-aware boundary both searchers
    pruned true top-k packages on catalogs with nulls.
    """

    @pytest.mark.parametrize("seed", [9, 30, 78, 12, 15])
    def test_null_catalogs_stay_exact(self, seed):
        evaluator, weights, k = random_instance(seed * 3)  # *3 -> nulls present
        sequential = TopKPackageSearcher(evaluator)
        batch = BatchTopKPackageSearcher(evaluator)
        batch_results = batch.search_many(weights, k)
        for v in range(weights.shape[0]):
            expected = [u for _, u in brute_force_top_k_packages(evaluator, weights[v], k)]
            assert np.allclose(sequential.search(weights[v], k).utilities, expected, atol=1e-9)
            assert np.allclose(batch_results[v].utilities, expected, atol=1e-9)

"""Columnar catalog store: round-trip fidelity, pushdown, and equivalence.

The bar for the mmap backing is *bit-identity*: everything observable about a
catalog — features, null masks, sort orders, summaries, and every search
result computed over it — must be exactly equal whether the catalog is the
in-memory matrix it was built from or a columnar store reopened through
``np.memmap``.  The property suites here exercise the hard cases: ties (the
stable argsort must break them identically), all-null columns, negative
weights (ascending orders), and null-aware boundary vectors.
"""

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig, PackageRecommender
from repro.core.items import ItemCatalog, SortedOrderCache
from repro.core.packages import PackageEvaluator
from repro.core.profiles import AggregateProfile
from repro.data.columnar import (
    CatalogPredicateSet,
    CategoryPredicate,
    NumericRangePredicate,
    open_catalog_store,
    write_catalog_store,
)
from repro.service.engine import EngineConfig, RecommendationEngine
from repro.topk.batch_search import BatchTopKPackageSearcher
from repro.topk.bruteforce import brute_force_top_k_packages
from repro.topk.package_search import TopKPackageSearcher, null_aware_boundary
from repro.topk.sorted_lists import SortedItemLists


def _nullable_catalog(seed: int, n: int = 120, m: int = 4) -> ItemCatalog:
    """A catalog with nulls, exact ties, and one all-null column."""
    rng = np.random.default_rng(seed)
    features = rng.integers(0, 8, size=(n, m)).astype(float)  # many ties
    features[rng.random((n, m)) < 0.2] = np.nan
    features[:, m - 1] = np.nan  # an entirely null column
    return ItemCatalog(features)


@pytest.fixture()
def store_pair(tmp_path):
    """(materialized catalog, mmap reopening of its store)."""
    catalog = _nullable_catalog(seed=3)
    write_catalog_store(catalog, str(tmp_path / "store"))
    return catalog, open_catalog_store(str(tmp_path / "store"))


# ------------------------------------------------------------------ round trip
class TestStoreRoundTrip:
    def test_features_and_null_mask_byte_identical(self, store_pair):
        catalog, reopened = store_pair
        original = np.asarray(catalog.features)
        mapped = np.asarray(reopened.features)
        assert np.array_equal(np.isnan(original), np.isnan(mapped))
        assert np.array_equal(
            np.nan_to_num(original).tobytes(), np.nan_to_num(mapped).tobytes()
        )
        assert np.array_equal(catalog.null_mask, np.asarray(reopened.null_mask))

    def test_stored_orders_match_live_argsort_both_directions(self, store_pair):
        catalog, reopened = store_pair
        for j in range(catalog.num_features):
            for descending in (True, False):
                assert np.array_equal(
                    catalog.argsort_feature(j, descending=descending),
                    reopened.argsort_feature(j, descending=descending),
                ), (j, descending)

    def test_summaries_and_stats_match(self, store_pair):
        catalog, reopened = store_pair
        assert np.array_equal(catalog.feature_max(), reopened.feature_max())
        assert np.array_equal(catalog.feature_min(), reopened.feature_min())
        assert catalog.has_nulls() == reopened.has_nulls()
        for j in range(catalog.num_features):
            assert np.array_equal(
                catalog.feature_top_values(j, 5), reopened.feature_top_values(j, 5)
            )
            assert np.array_equal(
                catalog.feature_column(j), reopened.feature_column(j)
            )

    def test_content_digests_equal_across_backings(self, store_pair):
        catalog, reopened = store_pair
        assert catalog.content_digest() == reopened.content_digest()
        assert reopened.backing_kind == "mmap"
        assert catalog.backing_kind == "materialized"
        assert reopened.store_path is not None
        assert reopened.backing.verify_digest()

    def test_names_and_ids_round_trip(self, tmp_path):
        features = np.array([[1.0, 2.0], [3.0, np.nan]])
        catalog = ItemCatalog(
            features, feature_names=["price", "stars"], item_ids=["a", "b"]
        )
        write_catalog_store(catalog, str(tmp_path / "s"))
        reopened = open_catalog_store(str(tmp_path / "s"))
        assert reopened.feature_names == ["price", "stars"]
        assert reopened.item_ids == ["a", "b"]

    def test_truncated_store_is_rejected(self, tmp_path):
        catalog = _nullable_catalog(seed=4, n=30)
        write_catalog_store(catalog, str(tmp_path / "s"))
        columns = tmp_path / "s" / "columns.f64"
        columns.write_bytes(columns.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected .* bytes"):
            open_catalog_store(str(tmp_path / "s"))


# ---------------------------------------------------------------- order cache
class TestSortedOrderCache:
    def test_argsort_feature_is_cached_per_instance(self):
        catalog = _nullable_catalog(seed=5, n=40)
        first = catalog.argsort_feature(0, descending=True)
        assert catalog.argsort_feature(0, descending=True) is first
        # Direction is part of the key, not a reuse of the same array.
        assert catalog.argsort_feature(0, descending=False) is not first

    def test_cache_compute_runs_once(self):
        cache = SortedOrderCache()
        calls = []

        def compute():
            calls.append(1)
            return np.arange(3)

        a = cache.get((0, True), compute)
        b = cache.get((0, True), compute)
        assert a is b and len(calls) == 1 and len(cache) == 1


# --------------------------------------------------- null handling / boundaries
class TestNullHandlingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_vectors_match_under_negative_weights(self, tmp_path, seed):
        catalog = _nullable_catalog(seed=seed)
        write_catalog_store(catalog, str(tmp_path / f"s{seed}"))
        reopened = open_catalog_store(str(tmp_path / f"s{seed}"))
        profile = AggregateProfile(["sum", "min", "max", "avg"])
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=4)  # mixed signs: both sort directions
        null_columns = catalog.null_mask.any(axis=0)
        cursors = [SortedItemLists(c, weights) for c in (catalog, reopened)]
        for _ in range(25):
            produced = {lists.next_item() for lists in cursors}
            assert len(produced) == 1  # same item (or same None) from both
            taus = [
                null_aware_boundary(
                    lists.boundary_vector(), weights, profile, null_columns
                )
                for lists in cursors
            ]
            assert np.array_equal(taus[0], taus[1], equal_nan=True)
        assert np.array_equal(
            cursors[0].exhausted_boundary_vector(),
            cursors[1].exhausted_boundary_vector(),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_search_results_bit_identical_across_backings(self, tmp_path, seed):
        catalog = _nullable_catalog(seed=10 + seed)
        write_catalog_store(catalog, str(tmp_path / "s"))
        reopened = open_catalog_store(str(tmp_path / "s"))
        profile = AggregateProfile(["sum", "avg", "min", "max"])
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(6, 4))
        W[0] = 0.0  # the deterministic zero-weight path too

        reference = None
        for backing in (catalog, reopened):
            evaluator = PackageEvaluator(backing, profile, max_package_size=2)
            sequential = TopKPackageSearcher(evaluator).search_many(W, 3)
            batched = BatchTopKPackageSearcher(evaluator).search_many(W, 3)
            observed = [
                (
                    [tuple(p.items) for p in r.packages],
                    r.utilities,
                    [tuple(p.items) for p in b.packages],
                    b.utilities,
                )
                for r, b in zip(sequential, batched)
            ]
            if reference is None:
                reference = observed
            else:
                assert observed == reference


# ------------------------------------------------------------------- predicates
class TestPredicatePushdown:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_range_mask_matches_scan_oracle(self, seed):
        catalog = _nullable_catalog(seed=20 + seed)
        rng = np.random.default_rng(seed)
        low, high = sorted(rng.uniform(0, 8, size=2))
        for predicate in (
            NumericRangePredicate(0, low=low, high=high),
            NumericRangePredicate(1, low=low),
            NumericRangePredicate(2, high=high),
            NumericRangePredicate(3, low=low, high=high),  # all-null column
        ):
            j = predicate.feature
            oracle = predicate.matches_column(np.asarray(catalog.features)[:, j])
            assert np.array_equal(predicate.eligible_mask(catalog), oracle)

    def test_category_mask_matches_scan_oracle(self):
        catalog = _nullable_catalog(seed=30)
        predicate = CategoryPredicate(1, values=[2, 5, 7])
        oracle = predicate.matches_column(np.asarray(catalog.features)[:, 1])
        assert np.array_equal(predicate.eligible_mask(catalog), oracle)

    def test_predicate_set_is_conjunction(self):
        catalog = _nullable_catalog(seed=31)
        a = NumericRangePredicate(0, low=2.0)
        b = CategoryPredicate(1, values=[1, 3])
        conjunction = CatalogPredicateSet([a, b]).eligible_mask(catalog)
        assert np.array_equal(
            conjunction, a.eligible_mask(catalog) & b.eligible_mask(catalog)
        )

    def test_mask_is_memoized_per_catalog(self):
        catalog = _nullable_catalog(seed=32)
        predicate = NumericRangePredicate(0, low=1.0)
        assert predicate.eligible_mask(catalog) is predicate.eligible_mask(catalog)

    def test_feature_resolvable_by_name(self):
        catalog = ItemCatalog(
            np.array([[1.0, 9.0], [5.0, 2.0]]), feature_names=["price", "stars"]
        )
        by_name = NumericRangePredicate("price", low=2.0).eligible_mask(catalog)
        by_index = NumericRangePredicate(0, low=2.0).eligible_mask(catalog)
        assert np.array_equal(by_name, by_index)
        with pytest.raises(KeyError):
            NumericRangePredicate("nope", low=0.0).eligible_mask(catalog)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pushdown_equals_bruteforce_over_eligible_items(self, tmp_path, seed):
        catalog = _nullable_catalog(seed=40 + seed, n=60)
        write_catalog_store(catalog, str(tmp_path / "s"))
        reopened = open_catalog_store(str(tmp_path / "s"))
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        predicate = NumericRangePredicate(0, low=2.0, high=6.0)
        eligible = np.flatnonzero(predicate.eligible_mask(catalog))
        assert 0 < eligible.size < catalog.num_items
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=4)

        for backing in (catalog, reopened):
            evaluator = PackageEvaluator(backing, profile, max_package_size=2)
            expected = brute_force_top_k_packages(
                evaluator, weights, k=3, item_indices=[int(i) for i in eligible]
            )
            for searcher in (
                TopKPackageSearcher(evaluator, catalog_predicate=predicate),
                BatchTopKPackageSearcher(evaluator, catalog_predicate=predicate),
            ):
                result = searcher.search(weights, 3)
                assert [tuple(p.items) for p in result.packages] == [
                    tuple(p.items) for p, _ in expected
                ]
                assert result.utilities == pytest.approx(
                    [u for _, u in expected], abs=0
                )

    def test_pushdown_touches_only_eligible_frontier(self):
        catalog = _nullable_catalog(seed=50, n=400)
        predicate = NumericRangePredicate(0, low=6.0, high=7.0)
        eligible = int(predicate.eligible_mask(catalog).sum())
        evaluator = PackageEvaluator(
            catalog, AggregateProfile(["sum", "avg", "max", "min"]), 2
        )
        searcher = TopKPackageSearcher(evaluator, catalog_predicate=predicate)
        result = searcher.search(np.array([1.0, 0.5, 0.0, 0.0]), 2)
        assert result.items_accessed <= eligible

    def test_zero_weight_path_respects_predicate(self):
        catalog = _nullable_catalog(seed=51, n=40)
        predicate = NumericRangePredicate(0, low=4.0)
        mask = predicate.eligible_mask(catalog)
        evaluator = PackageEvaluator(
            catalog, AggregateProfile(["sum", "avg", "max", "min"]), 2
        )
        for searcher in (
            TopKPackageSearcher(evaluator, catalog_predicate=predicate),
            BatchTopKPackageSearcher(evaluator, catalog_predicate=predicate),
        ):
            result = searcher.search(np.zeros(4), 3)
            assert result.packages  # eligible items exist
            for package in result.packages:
                assert mask[list(package.items)].all()

    def test_empty_eligibility_yields_empty_result(self):
        catalog = _nullable_catalog(seed=52, n=30)
        predicate = NumericRangePredicate(0, low=100.0)
        assert not predicate.eligible_mask(catalog).any()
        evaluator = PackageEvaluator(
            catalog, AggregateProfile(["sum", "avg", "max", "min"]), 2
        )
        searcher = TopKPackageSearcher(evaluator, catalog_predicate=predicate)
        assert searcher.search(np.array([1.0, 0, 0, 0]), 3).packages == []
        with pytest.raises(ValueError, match="eliminates every item"):
            PackageRecommender(
                catalog,
                AggregateProfile(["sum", "avg", "max", "min"]),
                config=ElicitationConfig(num_samples=8),
                catalog_predicate=predicate,
            )


# ----------------------------------------------------------------- service tier
class TestEngineBackings:
    def _rounds(self, engine, sessions=3):
        session_ids = [engine.create_session() for _ in range(sessions)]
        observed = []
        for session_id in session_ids:
            round_ = engine.recommend(session_id)
            observed.append([tuple(p.items) for p in round_.presented])
            engine.feedback(session_id, 0)
        for round_ in engine.recommend_many(session_ids):
            observed.append([tuple(p.items) for p in round_.presented])
        return observed

    def test_engine_rounds_identical_across_backings(self):
        catalog = _nullable_catalog(seed=60, n=150)
        profile = AggregateProfile(["sum", "avg", "max", "min"])
        config = dict(
            elicitation=ElicitationConfig(
                num_samples=16, k=2, max_package_size=2, num_random=1
            ),
            seed=9,
        )
        materialized = RecommendationEngine(
            catalog, profile, EngineConfig(**config)
        )
        mapped = RecommendationEngine(
            catalog, profile, EngineConfig(catalog_backing="mmap", **config)
        )
        assert mapped.catalog.backing_kind == "mmap"
        assert self._rounds(materialized) == self._rounds(mapped)

    def test_invalid_backing_rejected(self):
        with pytest.raises(ValueError, match="catalog_backing"):
            EngineConfig(catalog_backing="sqlite")

"""Tests for Package, AggregationState and PackageEvaluator."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import packages as packages_module
from repro.core.items import ItemCatalog
from repro.core.packages import (
    VECTOR_MEMO_CAPACITY,
    AggregationState,
    Package,
    PackageEvaluator,
)
from repro.core.profiles import AggregateProfile


class TestPackage:
    def test_of_sorts_and_deduplicates(self):
        package = Package.of([3, 1, 3, 2])
        assert package.items == (1, 2, 3)
        assert package.size == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Package.of([])

    def test_add_is_idempotent(self):
        package = Package.of([1, 2])
        assert package.add(2) is package
        assert package.add(0).items == (0, 1, 2)

    def test_contains_and_iteration(self):
        package = Package.of([4, 7])
        assert package.contains(4)
        assert not package.contains(5)
        assert list(package) == [4, 7]
        assert len(package) == 2

    def test_ordering_is_by_items(self):
        assert Package.of([1, 2]) < Package.of([1, 3])
        assert Package.of([0, 5]) < Package.of([1])

    def test_package_id_equals_items(self):
        assert Package.of([9, 2]).package_id == (2, 9)

    def test_hashable_and_equal(self):
        assert Package.of([1, 2]) == Package.of([2, 1])
        assert len({Package.of([1, 2]), Package.of([2, 1])}) == 1

    def test_slotted_without_an_instance_dict(self):
        package = Package.of([4, 2])
        assert not hasattr(package, "__dict__")
        with pytest.raises(AttributeError):
            package.items = (1,)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        package = Package.of([7, 3, 5])
        loaded = pickle.loads(pickle.dumps(package, protocol=protocol))
        assert loaded == package and loaded.items == (3, 5, 7)
        assert hash(loaded) == hash(package)

    def test_deepcopy_round_trip(self):
        packages = [Package.of([2]), Package.of([1, 3])]
        copied = copy.deepcopy(packages)
        assert copied == packages
        assert [hash(p) for p in copied] == [hash(p) for p in packages]
        # Equality, hash and ordering are the item tuple's.
        assert sorted(copied, reverse=True) == [Package.of([2]), Package.of([1, 3])]
        assert hash(Package.of([1, 3])) == hash(((1, 3),))


class TestAggregationState:
    def test_empty_state(self):
        state = AggregationState.empty(3)
        assert state.size == 0
        assert np.all(state.sums == 0)

    def test_add_accumulates(self):
        state = AggregationState.empty(2).add([1.0, 4.0]).add([3.0, 2.0])
        assert state.size == 2
        assert np.allclose(state.sums, [4.0, 6.0])
        assert np.allclose(state.mins, [1.0, 2.0])
        assert np.allclose(state.maxs, [3.0, 4.0])
        assert np.array_equal(state.counts, [2, 2])

    def test_add_is_non_mutating(self):
        empty = AggregationState.empty(1)
        empty.add([5.0])
        assert empty.size == 0

    def test_nan_treated_as_null(self):
        state = AggregationState.empty(2).add([np.nan, 2.0])
        assert state.size == 1
        assert state.counts[0] == 0
        assert state.sums[0] == 0.0

    def test_copy_is_independent(self):
        state = AggregationState.empty(2).add([1.0, 1.0])
        clone = state.copy()
        clone.sums[0] = 99.0
        assert state.sums[0] == 1.0


class TestPackageEvaluatorBasics:
    def test_paper_example_vectors(self, paper_example_evaluator):
        """Example 1: p1 = {t1} has normalised vector (0.6, 0.5)."""
        assert np.allclose(paper_example_evaluator.vector(Package.of([0])), [0.6, 0.5])

    def test_paper_example_utilities(self, paper_example_evaluator):
        """Figure 2(c): utilities of p1..p6 under w1 = (0.5, 0.1)."""
        w1 = np.array([0.5, 0.1])
        packages = [
            Package.of([0]), Package.of([1]), Package.of([2]),
            Package.of([0, 1]), Package.of([1, 2]), Package.of([0, 2]),
        ]
        utilities = [paper_example_evaluator.utility(p, w1) for p in packages]
        assert np.allclose(utilities, [0.35, 0.3, 0.2, 0.575, 0.4, 0.475], atol=1e-9)

    def test_mismatched_profile_rejected(self, small_random_catalog):
        with pytest.raises(ValueError):
            PackageEvaluator(small_random_catalog, AggregateProfile(["sum"]), 2)

    def test_invalid_max_size_rejected(self, small_random_catalog):
        with pytest.raises(ValueError):
            PackageEvaluator(
                small_random_catalog, AggregateProfile.uniform(4), 0
            )

    def test_custom_normalisers_validated(self, small_random_catalog):
        profile = AggregateProfile.uniform(4)
        with pytest.raises(ValueError):
            PackageEvaluator(small_random_catalog, profile, 2, normalisers=np.zeros(4))
        with pytest.raises(ValueError):
            PackageEvaluator(small_random_catalog, profile, 2, normalisers=np.ones(3))

    def test_vectors_stacks_rows(self, small_evaluator):
        packages = [Package.of([0]), Package.of([1, 2])]
        matrix = small_evaluator.vectors(packages)
        assert matrix.shape == (2, 4)
        assert np.allclose(matrix[0], small_evaluator.vector(packages[0]))

    def test_vectors_empty_input(self, small_evaluator):
        assert small_evaluator.vectors([]).shape == (0, 4)

    def test_utilities_matches_individual(self, small_evaluator):
        packages = [Package.of([0, 1]), Package.of([5])]
        weights = np.array([0.2, -0.3, 0.5, 0.1])
        batched = small_evaluator.utilities(packages, weights)
        individual = [small_evaluator.utility(p, weights) for p in packages]
        assert np.allclose(batched, individual)

    def test_normalised_vectors_in_unit_interval(self, small_evaluator):
        rng = np.random.default_rng(0)
        for _ in range(20):
            package = small_evaluator.random_package(rng)
            vector = small_evaluator.vector(package)
            assert np.all(vector >= -1e-12) and np.all(vector <= 1.0 + 1e-12)


class TestVectorMemo:
    """Memoized package vectors are the direct aggregation, bit for bit."""

    @pytest.fixture
    def nullable_evaluator(self):
        # Every aggregation, a null column, and NaN (null) item values.
        features = np.random.default_rng(11).random((12, 5))
        features[np.random.default_rng(12).random((12, 5)) < 0.25] = np.nan
        profile = AggregateProfile(["sum", "avg", "min", "max", "null"])
        return PackageEvaluator(ItemCatalog(features), profile, max_package_size=4)

    def test_memoized_vectors_equal_direct_aggregation(self, nullable_evaluator):
        evaluator = nullable_evaluator
        rng = np.random.default_rng(13)
        weights = rng.normal(size=5)
        for size in range(1, evaluator.max_package_size + 1):
            for _ in range(15):
                package = evaluator.random_package(rng, size=size)
                direct = evaluator.raw_aggregate(package) / evaluator.normalisers
                for _call in range(2):  # the first call fills the memo
                    vector = evaluator.vector(package)
                    assert vector.dtype == direct.dtype
                    assert vector.tobytes() == direct.tobytes()
                    assert evaluator.utility(package, weights) == float(direct @ weights)
                assert evaluator.interned_vector(package) is evaluator.interned_vector(package)
        packages = [evaluator.random_package(rng) for _ in range(6)]
        stacked = np.stack(
            [evaluator.raw_aggregate(p) / evaluator.normalisers for p in packages]
        )
        assert evaluator.vectors(packages).tobytes() == stacked.tobytes()

    def test_writing_to_a_returned_vector_leaves_the_memo_intact(self, small_evaluator):
        package = Package.of([0, 4, 9])
        first = small_evaluator.vector(package)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(small_evaluator.vector(package), expected)
        assert small_evaluator.vector(package) is not small_evaluator.vector(package)

    def test_memo_never_exceeds_its_bound(self, small_evaluator):
        # 30 items, packages of up to 3: 4525 distinct packages, more than
        # the memo holds.
        packages = list(small_evaluator.enumerate_packages())
        assert len(packages) > VECTOR_MEMO_CAPACITY
        largest = 0
        for package in packages:
            small_evaluator.interned_vector(package)
            largest = max(largest, len(small_evaluator._vector_memo))
        assert largest == VECTOR_MEMO_CAPACITY

    def test_a_cleared_memo_still_returns_correct_vectors(self, small_evaluator, monkeypatch):
        monkeypatch.setattr(packages_module, "VECTOR_MEMO_CAPACITY", 4)
        packages = [Package.of([i, i + 1]) for i in range(10)]
        for _pass in range(2):
            for package in packages:
                direct = small_evaluator.raw_aggregate(package) / small_evaluator.normalisers
                assert small_evaluator.vector(package).tobytes() == direct.tobytes()
                assert len(small_evaluator._vector_memo) <= 4


class TestIncrementalState:
    def test_state_matches_direct_evaluation(self, small_evaluator):
        rng = np.random.default_rng(1)
        for _ in range(20):
            package = small_evaluator.random_package(rng)
            state = small_evaluator.state_for_package(package)
            assert np.allclose(
                small_evaluator.state_vector(state), small_evaluator.vector(package)
            )

    def test_state_utility_matches_direct(self, small_evaluator):
        weights = np.array([0.5, -0.5, 0.25, 0.1])
        package = Package.of([2, 7, 11])
        state = small_evaluator.state_for_package(package)
        assert small_evaluator.state_utility(state, weights) == pytest.approx(
            small_evaluator.utility(package, weights)
        )

    def test_empty_state_vector_is_zero(self, small_evaluator):
        assert np.allclose(small_evaluator.state_vector(small_evaluator.empty_state()), 0.0)

    def test_state_add_values_hypothetical_item(self, small_evaluator):
        tau = np.array([0.9, 0.9, 0.9, 0.9])
        state = small_evaluator.state_add_values(small_evaluator.empty_state(), tau)
        vector = small_evaluator.state_vector(state)
        assert vector.shape == (4,)
        assert np.all(vector >= 0)


class TestEnumerationAndRandom:
    def test_enumerate_counts(self, paper_example_evaluator):
        packages = list(paper_example_evaluator.enumerate_packages())
        # 3 singletons + 3 pairs = 6 (φ = 2)
        assert len(packages) == 6

    def test_enumerate_respects_max_size_cap(self, paper_example_evaluator):
        packages = list(paper_example_evaluator.enumerate_packages(max_size=1))
        assert all(p.size == 1 for p in packages)

    def test_enumerate_never_exceeds_phi(self, small_evaluator):
        packages = list(
            small_evaluator.enumerate_packages(max_size=10, item_indices=range(5))
        )
        assert max(p.size for p in packages) == small_evaluator.max_package_size

    def test_random_package_within_bounds(self, small_evaluator):
        rng = np.random.default_rng(0)
        for _ in range(50):
            package = small_evaluator.random_package(rng)
            assert 1 <= package.size <= small_evaluator.max_package_size
            assert all(0 <= i < 30 for i in package)

    @pytest.mark.parametrize(
        "item_indices",
        [None, np.array([0, 3, 4, 9, 12, 17, 21, 29]), [2, 5, 5, 8], (7, 1)],
        ids=["all items", "index array", "repeated indices", "index tuple"],
    )
    def test_random_package_matches_choice_over_an_index_array(
        self, small_evaluator, item_indices
    ):
        # The draw is bit-identical to ``choice`` over an explicit index
        # array followed by ``Package.of``, and leaves the generator in the
        # same state, so served exploration packages do not move.
        num_items = small_evaluator.catalog.num_items
        pool = np.arange(num_items) if item_indices is None else np.asarray(item_indices)
        max_size = min(small_evaluator.max_package_size, pool.size)
        for seed in range(200):
            drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                size = int(expected.integers(1, max_size + 1))
                reference = Package.of(expected.choice(pool, size=size, replace=False))
                package = small_evaluator.random_package(drawn, item_indices=item_indices)
                assert package == reference
                assert all(type(i) is int for i in package.items)
            assert drawn.bit_generator.state == expected.bit_generator.state

    def test_random_package_fixed_size(self, small_evaluator):
        package = small_evaluator.random_package(0, size=2)
        assert package.size == 2

    def test_random_package_invalid_size(self, small_evaluator):
        with pytest.raises(ValueError):
            small_evaluator.random_package(0, size=99)

    def test_random_packages_distinct(self, small_evaluator):
        packages = small_evaluator.random_packages(25, rng=0)
        assert len({p.items for p in packages}) == 25

    def test_random_packages_too_many_distinct_raises(self):
        catalog = ItemCatalog(np.random.default_rng(0).random((3, 2)))
        evaluator = PackageEvaluator(catalog, AggregateProfile(["sum", "avg"]), 1)
        with pytest.raises(RuntimeError):
            evaluator.random_packages(10, rng=0)  # only 3 singletons exist

    def test_random_packages_negative_count(self, small_evaluator):
        with pytest.raises(ValueError):
            small_evaluator.random_packages(-1)

"""Tests for ConstraintSet and SamplePool."""

import copy

import numpy as np
import pytest

from repro.core.packages import Package
from repro.core.preferences import Preference, PreferenceStore
from repro.sampling.base import ConstraintSet, SamplePool


class TestConstraintSet:
    def test_empty_constraints_accept_everything(self):
        constraints = ConstraintSet.empty(3)
        assert constraints.is_empty()
        assert constraints.is_valid(np.array([0.5, -0.5, 0.1]))
        assert constraints.violations(np.array([1.0, 1.0, 1.0])) == 0

    def test_requires_dimension_when_empty(self):
        with pytest.raises(ValueError):
            ConstraintSet(None)

    def test_is_valid_half_space(self):
        constraints = ConstraintSet(np.array([[1.0, -1.0]]))
        assert constraints.is_valid(np.array([0.5, 0.2]))
        assert not constraints.is_valid(np.array([0.1, 0.5]))

    def test_valid_mask_and_violation_counts(self):
        constraints = ConstraintSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        samples = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
        assert np.array_equal(constraints.valid_mask(samples), [True, False, False])
        assert np.array_equal(constraints.violation_counts(samples), [0, 1, 2])

    def test_extended_appends_constraints(self):
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        extended = constraints.extended(np.array([0.0, 1.0]))
        assert len(extended) == 2
        assert len(constraints) == 1  # original untouched

    def test_extended_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ConstraintSet(np.array([[1.0, 0.0]])).extended(np.array([1.0]))

    def test_from_preferences_and_store(self, paper_example_evaluator):
        p4, p3 = Package.of([0, 1]), Package.of([2])
        preference = Preference.from_packages(paper_example_evaluator, p4, p3)
        from_prefs = ConstraintSet.from_preferences([preference])
        assert len(from_prefs) == 1

        store = PreferenceStore(2)
        store.add(preference)
        from_store = ConstraintSet.from_store(store)
        assert len(from_store) == 1
        assert np.allclose(from_store.directions, from_prefs.directions)

    def test_from_empty_preferences_needs_dimension(self):
        constraints = ConstraintSet.from_preferences([], num_features=4)
        assert constraints.num_features == 4


class TestSamplePool:
    def test_content_digest_is_memoized_only_while_read_only(self):
        samples = np.random.default_rng(0).random((6, 3))
        pool = SamplePool(samples, np.ones(6))
        writable = pool.content_digest()
        pool.weights[0] = 2.0  # writable arrays are hashed on every call
        assert pool.content_digest() != writable
        assert pool._digest_memo is None
        pool.samples.flags.writeable = False
        pool.weights.flags.writeable = False
        frozen = pool.content_digest()
        assert pool._digest_memo[2] == frozen
        assert SamplePool(samples.copy(), pool.weights.copy()).content_digest() == frozen
        # A deep copy carries the memo but its arrays are writable again.
        thawed = copy.deepcopy(pool)
        thawed.weights[0] = 1.0
        assert thawed.content_digest() == writable
        pool.weights = np.ones(6)  # a new array is hashed afresh
        assert pool.content_digest() == writable

    def test_unweighted_pool(self):
        pool = SamplePool.unweighted(np.zeros((5, 3)))
        assert pool.size == 5
        assert pool.num_features == 3
        assert np.allclose(pool.weights, 1.0)
        assert pool.effective_sample_size() == pytest.approx(5.0)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SamplePool(np.zeros((3, 2)), np.ones(2))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SamplePool(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_normalised_weights(self):
        pool = SamplePool(np.zeros((2, 2)), np.array([1.0, 3.0]))
        assert np.allclose(pool.normalised_weights(), [0.25, 0.75])

    def test_normalised_weights_all_zero_fall_back_to_uniform(self):
        pool = SamplePool(np.zeros((4, 2)), np.zeros(4))
        assert np.allclose(pool.normalised_weights(), 0.25)

    def test_subset_by_mask(self):
        pool = SamplePool(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
        subset = pool.subset(np.array([True, False, True]))
        assert subset.size == 2
        assert np.allclose(subset.weights, [1.0, 3.0])

    def test_concatenate(self):
        first = SamplePool.unweighted(np.zeros((2, 2)))
        second = SamplePool.unweighted(np.ones((3, 2)))
        combined = first.concatenate(second)
        assert combined.size == 5
        assert np.allclose(combined.samples[-1], 1.0)

    def test_concatenate_with_empty(self):
        empty = SamplePool.empty(2)
        pool = SamplePool.unweighted(np.ones((2, 2)))
        assert empty.concatenate(pool).size == 2
        assert pool.concatenate(empty).size == 2

    def test_mean_weight_vector_importance_weighted(self):
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        pool = SamplePool(samples, np.array([1.0, 3.0]))
        assert np.allclose(pool.mean_weight_vector(), [0.75, 0.75])

    def test_mean_of_empty_pool_raises(self):
        with pytest.raises(ValueError):
            SamplePool.empty(3).mean_weight_vector()

    def test_effective_sample_size_degrades_with_skewed_weights(self):
        balanced = SamplePool(np.zeros((4, 1)), np.ones(4))
        skewed = SamplePool(np.zeros((4, 1)), np.array([100.0, 1.0, 1.0, 1.0]))
        assert skewed.effective_sample_size() < balanced.effective_sample_size()


class TestInteriorPoint:
    def test_empty_constraints_give_the_origin(self):
        point = ConstraintSet.empty(3).interior_point()
        assert np.allclose(point, np.zeros(3))

    def test_interior_point_is_strictly_valid(self):
        rng = np.random.default_rng(0)
        hidden = rng.uniform(-1, 1, 8)
        hidden /= np.linalg.norm(hidden)
        directions = rng.normal(size=(40, 8))
        directions[directions @ hidden < 0] *= -1  # consistent feedback cone
        constraints = ConstraintSet(directions)
        point = constraints.interior_point()
        assert point is not None
        assert constraints.is_valid(point)
        # Strict slack against every constraint, not just boundary validity.
        assert (directions @ point > 0).all()

    def test_degenerate_cone_returns_none(self):
        flat = ConstraintSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert flat.interior_point() is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet.empty(2).interior_point(bound=0.0)


class TestFingerprintAndCopy:
    def test_fingerprint_is_order_and_sign_of_zero_invariant(self):
        a = ConstraintSet(np.array([[1.0, -0.5], [0.0, 0.25]]))
        b = ConstraintSet(np.array([[-0.0, 0.25], [1.0, -0.5]]))
        assert a.fingerprint() == b.fingerprint()

    def test_pool_copy_is_deep(self):
        pool = SamplePool.unweighted(np.ones((2, 2)), {"sampler": "RS"})
        clone = pool.copy()
        clone.samples[0, 0] = 9.0
        clone.stats["sampler"] = "other"
        assert pool.samples[0, 0] == 1.0
        assert pool.stats["sampler"] == "RS"

"""Tests for pairwise preferences, the preference DAG and transitive reduction."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig, PackageRecommender
from repro.core.items import ItemCatalog
from repro.core.packages import Package, PackageEvaluator
from repro.core.preferences import (
    Preference,
    PreferenceCycleError,
    PreferenceStore,
)
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet


def make_preference(evaluator, preferred_items, other_items):
    return Preference.from_packages(
        evaluator, Package.of(preferred_items), Package.of(other_items)
    )


class TestPreference:
    def test_direction_is_vector_difference(self, paper_example_evaluator):
        preference = make_preference(paper_example_evaluator, [0, 1], [2])
        expected = (
            paper_example_evaluator.vector(Package.of([0, 1]))
            - paper_example_evaluator.vector(Package.of([2]))
        )
        assert np.allclose(preference.direction, expected)

    def test_is_satisfied_by(self, paper_example_evaluator):
        preference = make_preference(paper_example_evaluator, [0, 1], [2])
        # w = (0.5, 0.1) ranks p4 above p3 in the paper's example.
        assert preference.is_satisfied_by(np.array([0.5, 0.1]))
        # Strongly cost-averse weights prefer the cheap singleton {t3}.
        assert not preference.is_satisfied_by(np.array([-1.0, 0.0]))

    def test_identical_packages_rejected(self, paper_example_evaluator):
        with pytest.raises(ValueError):
            make_preference(paper_example_evaluator, [0], [0])

    def test_from_vectors_uses_placeholders(self):
        preference = Preference.from_vectors(np.array([0.5, 0.5]), np.array([0.2, 0.1]))
        assert np.allclose(preference.direction, [0.3, 0.4])
        assert preference.preferred != preference.other

    def test_from_vectors_length_mismatch(self):
        with pytest.raises(ValueError):
            Preference.from_vectors(np.array([0.5]), np.array([0.2, 0.1]))

    def test_slotted_preferences_copy_and_pickle(self, paper_example_evaluator):
        preference = make_preference(paper_example_evaluator, [0, 1], [2])
        assert not hasattr(preference, "__dict__")
        for clone in (
            pickle.loads(pickle.dumps(preference)),
            copy.deepcopy(preference),
            copy.copy(preference),
        ):
            assert clone == preference
            assert hash(clone) == hash(preference)


class TestPreferenceStoreBasics:
    def test_add_and_count(self, paper_example_evaluator):
        store = PreferenceStore(2)
        assert store.add(make_preference(paper_example_evaluator, [0, 1], [2]))
        assert len(store) == 1
        assert store.num_packages == 2

    def test_dimension_mismatch_rejected(self, paper_example_evaluator):
        store = PreferenceStore(3)
        with pytest.raises(ValueError):
            store.add(make_preference(paper_example_evaluator, [0], [1]))

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            PreferenceStore(0)
        with pytest.raises(ValueError):
            PreferenceStore(2, on_cycle="ignore")

    def test_click_feedback_generates_pairwise_preferences(self, paper_example_evaluator):
        store = PreferenceStore(2)
        presented = [Package.of([0]), Package.of([1]), Package.of([2])]
        added = store.add_click_feedback(paper_example_evaluator, presented[0], presented)
        assert len(added) == 2
        assert len(store) == 2

    def test_satisfies_and_violations(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0, 1], [2]))
        store.add(make_preference(paper_example_evaluator, [0, 1], [1]))
        assert store.satisfies(np.array([0.5, 0.1]))
        assert store.count_violations(np.array([0.5, 0.1])) == 0
        assert store.count_violations(np.array([-1.0, -1.0])) > 0

    def test_empty_store_satisfied_by_anything(self):
        store = PreferenceStore(3)
        assert store.satisfies(np.array([0.1, -0.2, 0.9]))
        assert store.directions().shape == (0, 3)


class TestCycles:
    def test_cycle_raises_by_default(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        store.add(make_preference(paper_example_evaluator, [1], [2]))
        with pytest.raises(PreferenceCycleError):
            store.add(make_preference(paper_example_evaluator, [2], [0]))

    def test_cycle_dropped_when_configured(self, paper_example_evaluator):
        store = PreferenceStore(2, on_cycle="drop")
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        assert not store.add(make_preference(paper_example_evaluator, [1], [0]))
        assert store.num_dropped == 1
        assert len(store) == 1

    def test_self_preference_rejected(self, paper_example_evaluator):
        store = PreferenceStore(2)
        preference = make_preference(paper_example_evaluator, [0], [1])
        bad = Preference(
            preferred=preference.preferred,
            other=preference.preferred,
            preferred_vector=preference.preferred_vector,
            other_vector=preference.preferred_vector,
        )
        with pytest.raises(ValueError):
            store.add(bad)


class TestTransitiveReduction:
    def test_redundant_edge_removed(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))       # a > b
        store.add(make_preference(paper_example_evaluator, [1], [2]))       # b > c
        store.add(make_preference(paper_example_evaluator, [0], [2]))       # a > c (redundant)
        reduced = store.reduced_preferences()
        assert len(store) == 3
        assert len(reduced) == 2
        edges = {(p.preferred.items, p.other.items) for p in reduced}
        assert ((0,), (2,)) not in edges

    def test_reduction_preserves_validity_semantics(self, paper_example_evaluator):
        rng = np.random.default_rng(0)
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        store.add(make_preference(paper_example_evaluator, [1], [2]))
        store.add(make_preference(paper_example_evaluator, [0], [2]))
        for _ in range(200):
            w = rng.uniform(-1, 1, 2)
            assert store.satisfies(w, reduced=True) == store.satisfies(w, reduced=False)

    def test_non_redundant_edges_kept(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        store.add(make_preference(paper_example_evaluator, [0], [2]))
        assert len(store.reduced_preferences()) == 2

    def test_directions_reduced_flag(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        store.add(make_preference(paper_example_evaluator, [1], [2]))
        store.add(make_preference(paper_example_evaluator, [0], [2]))
        assert store.directions(reduced=False).shape[0] == 3
        assert store.directions(reduced=True).shape[0] == 2

    def test_duplicate_edges_collapsed_in_reduction(self, paper_example_evaluator):
        store = PreferenceStore(2)
        preference = make_preference(paper_example_evaluator, [0], [1])
        store.add(preference)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        assert len(store) == 2
        assert len(store.reduced_preferences()) == 1


def reference_dag(clicks, evaluator):
    """Accepted preferences, node count and reduction of a click sequence.

    The DAG semantics spelled out naively from the accepted edges alone,
    every node explicit: a preference is dropped when its ``other`` package
    already reaches its ``preferred`` one, and an accepted edge is redundant
    when a path of two or more edges joins its ends.
    """
    accepted = []

    def successors():
        graph = {}
        for pref in accepted:
            graph.setdefault(pref.preferred.items, set()).add(pref.other.items)
        return graph

    def reaches(graph, src, dst, skip=None):
        stack = [n for n in graph.get(src, ()) if (src, n) != skip]
        seen = set(stack)
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in graph.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for clicked, presented in clicks:
        for package in presented:
            if package == clicked:
                continue
            if not reaches(successors(), package.items, clicked.items):
                accepted.append(Preference.from_packages(evaluator, clicked, package))
    graph = successors()
    nodes = {p.preferred.items for p in accepted} | {p.other.items for p in accepted}
    kept, seen = [], set()
    for pref in accepted:
        edge = (pref.preferred.items, pref.other.items)
        if edge in seen or reaches(graph, edge[0], edge[1], skip=edge):
            continue
        seen.add(edge)
        kept.append(pref)
    return accepted, len(nodes), kept


class TestSlimDag:
    """The DAG keeps no node table: what it reports is unchanged."""

    def test_random_click_sequences_match_the_reference(self):
        catalog = ItemCatalog(np.random.default_rng(5).random((6, 3)))
        evaluator = PackageEvaluator(catalog, AggregateProfile(["sum", "avg", "max"]), 2)
        packages = [Package.of([i]) for i in range(6)] + [
            Package.of([i, j]) for i in range(6) for j in range(i + 1, 6)
        ]
        rng = np.random.default_rng(27)
        dropped = 0
        for _sequence in range(150):
            store = PreferenceStore(3, on_cycle="drop")
            clicks = []
            for _click in range(int(rng.integers(1, 9))):
                chosen = rng.choice(len(packages), size=int(rng.integers(2, 6)), replace=False)
                presented = [packages[i] for i in chosen]
                clicked = presented[int(rng.integers(len(presented)))]
                store.add_click_feedback(evaluator, clicked, presented)
                clicks.append((clicked, presented))
                accepted, num_packages, reduced = reference_dag(clicks, evaluator)
                assert store.preferences == accepted
                assert store.num_packages == num_packages
                assert store.reduced_preferences() == reduced
            dropped += store.num_dropped
        assert dropped > 0  # the sequences did exercise cycle drops


class TestConeCache:
    """The recommender's cached cone and memoized fingerprint equal fresh builds."""

    @pytest.fixture
    def tiny_catalog(self):
        # Five items and pairs of them: few enough packages that random
        # clicks keep revisiting the same ones and close cycles.
        return ItemCatalog(np.random.default_rng(3).random((5, 3)))

    @pytest.fixture
    def tiny_evaluator(self, tiny_catalog):
        return PackageEvaluator(tiny_catalog, AggregateProfile(["sum", "avg", "max"]), 2)

    def test_random_click_sequences_match_fresh_builds(self, tiny_catalog):
        recommender = PackageRecommender(
            tiny_catalog,
            AggregateProfile(["sum", "avg", "max"]),
            ElicitationConfig(max_package_size=2, k=2, num_random=0, num_samples=5),
        )
        rng = np.random.default_rng(2024)
        packages = [Package.of([i]) for i in range(5)] + [
            Package.of([i, j]) for i in range(5) for j in range(i + 1, 5)
        ]
        dropped = 0
        for _sequence in range(200):
            store = recommender.preferences = PreferenceStore(3, on_cycle="drop")
            for _click in range(int(rng.integers(1, 8))):
                before = recommender.constraints
                chosen = rng.choice(len(packages), size=int(rng.integers(2, 5)), replace=False)
                presented = [packages[i] for i in chosen]
                clicked = presented[int(rng.integers(len(presented)))]
                added = store.add_click_feedback(recommender.evaluator, clicked, presented)
                cached = recommender.constraints
                # A fully cycle-dropped click leaves the store, and so the
                # cached cone, as it was.
                assert (cached is before) == (not added)
                fresh = ConstraintSet.from_store(store)
                assert np.array_equal(cached.directions, fresh.directions)
                for reduced in (True, False):
                    # One subtraction of two stacked matrices: the same bits
                    # as stacking each preference's own direction.
                    prefs = store.reduced_preferences() if reduced else store.preferences
                    stacked = np.stack([p.direction for p in prefs])
                    directions = store.directions(reduced=reduced)
                    assert directions.shape == stacked.shape
                    assert directions.tobytes() == stacked.tobytes()
                assert cached.fingerprint() == fresh.fingerprint()
                assert cached.fingerprint() == fresh.fingerprint()  # memoized
                assert cached.fingerprint() is cached.fingerprint()
            dropped += store.num_dropped
        assert dropped > 0  # the sequences did exercise cycle drops

    def test_click_feedback_matches_pairwise_construction(self, tiny_evaluator):
        presented = [Package.of([0]), Package.of([1, 2]), Package.of([3, 4])]
        store = PreferenceStore(3)
        added = store.add_click_feedback(tiny_evaluator, presented[1], presented)
        expected = [
            Preference.from_packages(tiny_evaluator, presented[1], other)
            for other in (presented[0], presented[2])
        ]
        assert added == expected

    def test_constraint_directions_are_read_only(self, paper_example_evaluator):
        store = PreferenceStore(2)
        store.add(make_preference(paper_example_evaluator, [0], [1]))
        constraints = ConstraintSet.from_store(store)
        with pytest.raises(ValueError):
            constraints.directions[0, 0] = 1.0
        with pytest.raises(ValueError):
            ConstraintSet.empty(2).directions.fill(1.0)

    def test_writable_input_is_copied(self):
        directions = np.array([[1.0, -1.0]])
        constraints = ConstraintSet(directions)
        before = constraints.fingerprint()
        directions[0, 0] = 5.0  # the caller's array stays writable ...
        assert constraints.directions[0, 0] == 1.0  # ... and is not shared
        assert constraints.fingerprint() == before

    def test_recommender_builds_one_constraint_set_per_store_state(
        self, small_random_catalog
    ):
        recommender = PackageRecommender(
            small_random_catalog,
            AggregateProfile(["sum", "avg", "max", "min"]),
            ElicitationConfig(k=2, num_random=2, num_samples=20, seed=0),
        )
        first = recommender.constraints
        assert recommender.constraints is first
        round_ = recommender.recommend(recommended=[Package.of([0]), Package.of([1])])
        recommender.feedback(round_.presented[0])
        second = recommender.constraints
        assert second is not first
        assert recommender.constraints is second
        assert second.fingerprint() == ConstraintSet.from_store(
            recommender.preferences
        ).fingerprint()
        # A replaced store is never answered from the old store's cache.
        recommender.preferences = PreferenceStore(4, on_cycle="drop")
        assert recommender.constraints.is_empty()

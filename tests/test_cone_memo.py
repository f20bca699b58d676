"""Sessions with one click history share one cone.

A recommender over a :class:`HistoryTrie` reads its §3.3 cone from its
history's node, the one node per click history the trie interns.  Every
cone a node serves must equal a fresh :meth:`ConstraintSet.from_store`
over the same store: bit-equal directions and the same fingerprint.
Randomized over click sequences with cycle drops, blob restores, event-log
replay and an index cleared when full; private stores never enter the
trie.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig, PackageRecommender
from repro.core.items import ItemCatalog
from repro.core import preferences as preferences_module
from repro.core.preferences import HistoryTrie, Preference, PreferenceStore
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet
from repro.service import EngineConfig, EventLogStore, RecommendationEngine

TRIALS = 12
CLICKS = 8


@pytest.fixture
def catalog() -> ItemCatalog:
    return ItemCatalog(np.random.default_rng(3).random((8, 3)))


@pytest.fixture
def profile() -> AggregateProfile:
    return AggregateProfile(["sum", "avg", "max"])


def _config(**overrides) -> ElicitationConfig:
    settings = dict(
        k=2,
        num_random=2,
        max_package_size=2,
        num_samples=40,
        search_sample_budget=3,
        search_beam_width=None,
        search_items_cap=None,
        seed=0,
    )
    settings.update(overrides)
    return ElicitationConfig(**settings)


def _assert_fresh(recommender: PackageRecommender) -> ConstraintSet:
    """The recommender's cone, checked against a fresh build of its store."""
    cone = recommender.constraints
    fresh = ConstraintSet.from_store(recommender.preferences)
    assert cone.directions.shape == fresh.directions.shape
    assert cone.directions.tobytes() == fresh.directions.tobytes()
    assert cone.fingerprint() == fresh.fingerprint()
    return cone


def _clicks(evaluator, seed: int):
    """A random click sequence over few packages, so later clicks close cycles."""
    rng = np.random.default_rng(seed)
    candidates = [evaluator.random_package(rng) for _ in range(6)]
    candidates = list(dict.fromkeys(candidates))
    for _ in range(CLICKS):
        size = int(rng.integers(2, len(candidates) + 1))
        picked = rng.choice(len(candidates), size=size, replace=False)
        presented = [candidates[i] for i in picked]
        yield presented[int(rng.integers(size))], presented


class TestRandomClickSequences:
    def test_memo_served_cones_equal_fresh_builds(self, catalog, profile):
        first = PackageRecommender(catalog, profile, _config())
        evaluator = first.evaluator
        trie = HistoryTrie(evaluator)
        dropped = 0
        for trial in range(TRIALS):
            live = PackageRecommender(
                catalog, profile, _config(),
                batch_searcher=first.batch_searcher, history=trie,
            )
            twin = PackageRecommender(
                catalog, profile, _config(),
                batch_searcher=first.batch_searcher, history=trie,
            )
            for clicked, presented in _clicks(evaluator, trial):
                live.feedback(clicked, presented)
                cone = _assert_fresh(live)
                twin.feedback(clicked, presented)
                # One history, one node, one cone object.
                assert twin.preferences is live.preferences
                assert _assert_fresh(twin) is cone
            dropped += live.preferences.num_dropped
        assert dropped > 0  # the sequences did close cycles

    def test_the_same_edges_in_another_order_are_another_cone(self, catalog, profile):
        first = PackageRecommender(catalog, profile, _config())
        rng = np.random.default_rng(0)
        a, b, c, d = (first.evaluator.random_package(rng) for _ in range(4))
        clicks = [(a, [a, b]), (c, [c, d])]
        trie = HistoryTrie(first.evaluator)
        forward = PackageRecommender(
            catalog, profile, _config(),
            batch_searcher=first.batch_searcher, history=trie,
        )
        backward = PackageRecommender(
            catalog, profile, _config(),
            batch_searcher=first.batch_searcher, history=trie,
        )
        for clicked, presented in clicks:
            forward.feedback(clicked, presented)
        for clicked, presented in reversed(clicks):
            backward.feedback(clicked, presented)
        # One edge set; the reduced rows keep insertion order, so the
        # direction matrices differ and so must the nodes and cones.
        assert backward.preferences is not forward.preferences
        assert _assert_fresh(backward) is not _assert_fresh(forward)
        assert backward.constraints.fingerprint() == forward.constraints.fingerprint()

    def test_a_standalone_recommender_keeps_its_own_memo(self, catalog, profile):
        one = PackageRecommender(catalog, profile, _config())
        two = PackageRecommender(catalog, profile, _config())
        for clicked, presented in _clicks(one.evaluator, 0):
            one.feedback(clicked, presented)
            two.feedback(clicked, presented)
        # Without a trie each keeps a private store and adds to it in place.
        assert one.history is None and not one.preferences.interned
        cone, other = _assert_fresh(one), _assert_fresh(two)
        assert cone is not other
        assert cone.directions.tobytes() == other.directions.tobytes()

    def test_foreign_vectors_never_share_a_cone(self, catalog, profile):
        first = PackageRecommender(catalog, profile, _config())
        evaluator = first.evaluator
        trie = HistoryTrie(evaluator)
        live = PackageRecommender(
            catalog, profile, _config(),
            batch_searcher=first.batch_searcher, history=trie,
        )
        assert live.preferences is trie.root
        clicks = list(_clicks(evaluator, 1))
        for clicked, presented in clicks[:4]:
            live.feedback(clicked, presented)
        _assert_fresh(live)
        assert live.preferences.interned
        # A shared node is read-only: adding to it would change every
        # session that holds it.
        with pytest.raises(ValueError, match="read-only"):
            live.preferences.add(live.preferences.preferences[0])
        # Another catalog's evaluator gives the same packages other vectors.
        other_catalog = ItemCatalog(np.random.default_rng(4).random((8, 3)))
        other = PackageRecommender(other_catalog, profile, _config()).evaluator
        # The same edges in the same order, holding those vectors, added as
        # a snapshot restore adds them: to a private store, which a trie
        # keyed by clicks would otherwise mistake for the live history.
        restored = PackageRecommender(
            catalog, profile, _config(),
            batch_searcher=live.batch_searcher, history=trie,
        )
        restored.preferences = PreferenceStore(3, on_cycle="drop")
        for preference in live.preferences.preferences:
            restored.preferences.add(
                Preference.from_vectors(
                    other.vector(preference.preferred),
                    other.vector(preference.other),
                    preferred=preference.preferred,
                    other=preference.other,
                )
            )
        assert not restored.preferences.interned
        assert _assert_fresh(restored) is not live.constraints
        size = trie.describe()["nodes"]
        store = restored.preferences
        for clicked, presented in clicks[4:]:
            restored.feedback(clicked, presented)
            assert restored.preferences is store  # added in place
            _assert_fresh(restored)
        assert trie.describe()["nodes"] == size


class TestCleared:
    def test_a_full_memo_is_cleared_and_still_serves_fresh_cones(
        self, catalog, profile, monkeypatch
    ):
        monkeypatch.setattr(preferences_module, "HISTORY_INDEX_CAPACITY", 4)
        first = PackageRecommender(catalog, profile, _config())
        trie = HistoryTrie(first.evaluator)
        largest = 0
        for trial in range(TRIALS):
            recommender = PackageRecommender(
                catalog, profile, _config(),
                batch_searcher=first.batch_searcher, history=trie,
            )
            for clicked, presented in _clicks(first.evaluator, trial):
                recommender.feedback(clicked, presented)
                _assert_fresh(recommender)
                largest = max(largest, trie.describe()["nodes"])
        assert largest == 4
        assert trie.describe()["index_clears"] > 0


def _engine(catalog, profile, store=None, **overrides) -> RecommendationEngine:
    return RecommendationEngine(
        catalog,
        profile,
        EngineConfig(elicitation=_config(), seed=1, **overrides),
        store=store,
    )


def _serve(engine, session_ids, rounds: int, seed: int):
    """Serve ``rounds`` rounds, clicking a random package of each."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        for session_id in session_ids:
            round_ = engine.recommend(session_id)
            engine.feedback(session_id, int(rng.integers(len(round_.presented))))


class TestServingPaths:
    def test_blob_restored_sessions_build_fresh_cones(self, catalog, profile):
        engine = _engine(catalog, profile)
        session_ids = [engine.create_session(seed=i) for i in range(3)]
        _serve(engine, session_ids, rounds=3, seed=0)
        restored_engine = _engine(catalog, profile)
        for session_id in session_ids:
            live = engine.sessions.peek(session_id).recommender
            restored_engine.restore(engine.snapshot(session_id))
            restored = restored_engine.sessions.peek(session_id).recommender
            assert not restored.preferences.interned
            cone = _assert_fresh(restored)
            assert cone.directions.tobytes() == _assert_fresh(live).directions.tobytes()
        _serve(restored_engine, session_ids, rounds=2, seed=1)
        for session_id in session_ids:
            restored = restored_engine.sessions.peek(session_id).recommender
            assert not restored.preferences.interned
            _assert_fresh(restored)
        assert restored_engine.history.describe()["nodes_created"] == 0

    def test_replayed_sessions_share_the_memo(self, catalog, profile, tmp_path):
        store = EventLogStore(os.fspath(tmp_path / "log"))
        engine = _engine(catalog, profile, store=store, max_active_sessions=1)
        resident = _engine(catalog, profile)
        session_ids = [engine.create_session(seed=i) for i in range(3)]
        for session_id, seed in zip(session_ids, range(3)):
            resident.create_session(session_id=session_id, seed=seed)
        rng = np.random.default_rng(2)
        nodes = {}
        for _ in range(3):
            for session_id in session_ids:
                round_ = engine.recommend(session_id)
                assert round_.presented == resident.recommend(session_id).presented
                recommender = engine.sessions.peek(session_id).recommender
                # Replay walked the trie back to the node the session held
                # when it was swapped out.
                assert recommender.preferences is nodes.get(
                    session_id, engine.history.root
                )
                cone = _assert_fresh(recommender)
                assert cone is recommender.preferences.cone
                never_evicted = resident.sessions.peek(session_id).recommender
                assert cone.directions.tobytes() == (
                    never_evicted.constraints.directions.tobytes()
                )
                click = int(rng.integers(len(round_.presented)))
                engine.feedback(session_id, click)
                resident.feedback(session_id, click)
                nodes[session_id] = engine.sessions.peek(session_id).recommender.preferences
        assert engine.stats().sessions_restored > 0
        engine.event_log.close()

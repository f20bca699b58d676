"""The click-history trie: one read-only store per distinct click history.

A trie node must report exactly what a private :class:`PreferenceStore`
fed the same clicks reports — accepted preferences in order, drop count,
reduced preferences and cone fingerprint — whether the node was built by
the click or found in the index.  An engine's sessions with one history
share one node and one cone; sessions restored from a snapshot blob keep a
private store and never enter the trie.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.packages import Package, PackageEvaluator
from repro.core import preferences as preferences_module
from repro.core.preferences import HistoryTrie, PreferenceStore
from repro.core.profiles import AggregateProfile
from repro.experiments.harness import default_profile
from repro.obs import Telemetry
from repro.sampling.base import ConstraintSet
from repro.service import EngineConfig, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

SEQUENCES = 200


@pytest.fixture
def evaluator() -> PackageEvaluator:
    catalog = ItemCatalog(np.random.default_rng(5).random((6, 3)))
    return PackageEvaluator(catalog, AggregateProfile(["sum", "avg", "max"]), 2)


def _packages():
    # Few packages, so random clicks keep revisiting them and close cycles.
    return [Package.of([i]) for i in range(6)] + [
        Package.of([i, j]) for i in range(6) for j in range(i + 1, 6)
    ]


def _click_sequences(seed: int):
    """Seeded click sequences; many share a prefix with an earlier one."""
    rng = np.random.default_rng(seed)
    packages = _packages()
    sequences = []
    for _ in range(SEQUENCES):
        if sequences and rng.random() < 0.5:
            # Walk an earlier history part of the way, then diverge.
            earlier = sequences[int(rng.integers(len(sequences)))]
            clicks = list(earlier[: int(rng.integers(len(earlier) + 1))])
        else:
            clicks = []
        for _ in range(int(rng.integers(1, 8))):
            chosen = rng.choice(len(packages), size=int(rng.integers(2, 6)), replace=False)
            presented = [packages[i] for i in chosen]
            clicks.append((presented[int(rng.integers(len(presented)))], presented))
        sequences.append(clicks)
    return sequences


def _assert_same_history(node: PreferenceStore, reference: PreferenceStore) -> None:
    assert node.preferences == reference.preferences
    assert node.num_dropped == reference.num_dropped
    assert node.reduced_preferences() == reference.reduced_preferences()
    assert node.num_packages == reference.num_packages
    fresh = ConstraintSet.from_store(reference)
    assert node.cone.directions.tobytes() == fresh.directions.tobytes()
    assert node.cone.fingerprint() == fresh.fingerprint()


class TestNodesMatchPrivateStores:
    @pytest.mark.parametrize("capacity", [1024, 3])
    def test_random_click_sequences(self, evaluator, capacity, monkeypatch):
        monkeypatch.setattr(preferences_module, "HISTORY_INDEX_CAPACITY", capacity)
        trie = HistoryTrie(evaluator)
        dropped = 0
        for clicks in _click_sequences(capacity):
            node = trie.root
            reference = PreferenceStore(3, on_cycle="drop")
            for clicked, presented in clicks:
                node, added = trie.click(node, clicked, presented)
                assert added == reference.add_click_feedback(
                    evaluator, clicked, presented
                )
                assert node.interned
                _assert_same_history(node, reference)
            dropped += reference.num_dropped
        described = trie.describe()
        assert dropped > 0  # the sequences did close cycles
        assert described["nodes"] <= capacity
        if capacity == 3:
            assert described["index_clears"] > 0
        else:
            assert described["index_hits"] > 0  # the sequences repeated

    def test_a_repeated_click_returns_the_same_node(self, evaluator):
        trie = HistoryTrie(evaluator)
        a, b, c = Package.of([0]), Package.of([1]), Package.of([2, 3])
        first, added = trie.click(trie.root, a, [a, b, c])
        again, repeated = trie.click(trie.root, a, [a, b, c])
        assert again is first and repeated == added
        # Another presentation order is another click.
        assert trie.click(trie.root, a, [a, c, b])[0] is not first
        # A parent is never changed by its children.
        assert len(trie.root) == 0 and trie.root.cone.is_empty()

    def test_a_click_that_only_drops_keeps_the_preferences_and_cone(self, evaluator):
        trie = HistoryTrie(evaluator)
        a, b = Package.of([0]), Package.of([1])
        node, _ = trie.click(trie.root, a, [a, b])
        cone = node.cone
        child, added = trie.click(node, b, [a, b])  # b ≻ a closes a cycle
        assert added == [] and child is not node
        assert child.num_dropped == node.num_dropped + 1
        assert child.preferences == node.preferences
        assert child.cone is cone

    def test_interned_nodes_are_read_only(self, evaluator):
        trie = HistoryTrie(evaluator)
        a, b = Package.of([0]), Package.of([1])
        node, added = trie.click(trie.root, a, [a, b])
        with pytest.raises(ValueError, match="read-only"):
            node.add(added[0])
        with pytest.raises(ValueError, match="read-only"):
            trie.root.add_click_feedback(evaluator, a, [a, b])

    def test_a_private_store_is_not_clicked_through_the_trie(self, evaluator):
        trie = HistoryTrie(evaluator)
        store = PreferenceStore(3, on_cycle="drop")
        a, b = Package.of([0]), Package.of([1])
        with pytest.raises(ValueError, match="private"):
            trie.click(store, a, [a, b])
        assert len(store) == 0
        assert trie.describe()["nodes_created"] == 0


def _elicitation() -> ElicitationConfig:
    return ElicitationConfig(
        k=3,
        num_random=2,
        max_package_size=3,
        num_samples=60,
        search_sample_budget=2,
        search_beam_width=None,
        search_items_cap=None,
        seed=0,
    )


def _engine(**overrides) -> RecommendationEngine:
    catalog = ItemCatalog(np.random.default_rng(0).random((40, 4)))
    return RecommendationEngine(
        catalog,
        default_profile(4),
        EngineConfig(elicitation=_elicitation(), seed=1, **overrides),
    )


def _serve(engine, user, rounds: int = 3) -> str:
    session_id = engine.create_session(seed=session_seed_for(0, 0, True))
    for _ in range(rounds):
        round_ = engine.recommend(session_id)
        engine.feedback(session_id, user.click(round_.presented))
    return session_id


class TestEngineSessions:
    def test_identical_histories_share_one_node_and_cone(self):
        engine = _engine()
        user = build_user_population(engine.evaluator, 1, True, 0)[0]
        session_ids = [_serve(engine, user) for _ in range(6)]
        recommenders = [engine.sessions.peek(sid).recommender for sid in session_ids]
        node = recommenders[0].preferences
        assert node.interned and len(node) > 0
        for recommender in recommenders:
            assert recommender.history is engine.history
            assert recommender.preferences is node
            assert recommender.constraints is node.cone
        history = engine.stats().history
        assert history["nodes_created"] == 3  # one per click of the first
        assert history["index_hits"] == 3 * 5

    def test_blob_restored_sessions_never_enter_the_trie(self):
        engine = _engine()
        users = build_user_population(engine.evaluator, 3, True, 0)
        session_ids = [_serve(engine, user, rounds=2) for user in users]
        restored_engine = _engine()
        before = restored_engine.stats().history
        for session_id, user in zip(session_ids, users):
            payload = engine.snapshot(session_id)
            restored_engine.restore(payload)
            # The same engine restoring over a live session: also private.
            engine.restore(payload, replace_existing=True)
            for target in (engine, restored_engine):
                recommender = target.sessions.peek(session_id).recommender
                assert not recommender.preferences.interned
                round_ = target.recommend(session_id)
                target.feedback(session_id, user.click(round_.presented))
                assert not recommender.preferences.interned
        assert restored_engine.stats().history == before
        # The live sessions' nodes are still the trie's, unchanged.
        assert engine.stats().history["nodes_created"] == 2


class TestObservability:
    def test_a_new_history_raises_the_node_count_and_a_repeat_does_not(self):
        engine = _engine()
        users = build_user_population(engine.evaluator, 2, False, 0)

        def nodes() -> float:
            return engine.metrics_snapshot()["repro_history_nodes"]

        assert nodes() == 0
        _serve(engine, users[0])
        grown = nodes()
        assert grown == 3
        assert engine.observe()["engine"]["history"]["nodes"] == grown
        repeat = engine.create_session(seed=session_seed_for(0, 0, True))
        for _ in range(3):
            round_ = engine.recommend(repeat)
            engine.feedback(repeat, users[0].click(round_.presented))
        assert nodes() == grown
        _serve(engine, users[1])
        assert nodes() > grown
        assert engine.metrics_snapshot()["repro_history_index_clears_total"] == 0

    def test_index_clears_are_counted(self, evaluator, monkeypatch):
        monkeypatch.setattr(preferences_module, "HISTORY_INDEX_CAPACITY", 2)
        telemetry = Telemetry.disabled()
        trie = HistoryTrie(evaluator)
        trie.attach_telemetry(telemetry)
        a, b, c = Package.of([0]), Package.of([1]), Package.of([2])
        node = trie.root
        for clicked, presented in [(a, [a, b]), (b, [b, c]), (c, [c, a])]:
            node, _ = trie.click(node, clicked, presented)
        assert trie.describe()["index_clears"] == 1
        assert telemetry.registry.snapshot()["repro_history_index_clears_total"] == 1

"""Sessions with one click history share one cone.

A recommender reads its §3.3 cone from its evaluator's cone memo, keyed by
the accepted preference edges in insertion order.  Every cone the memo
serves must equal a fresh :meth:`ConstraintSet.from_store` over the same
store: bit-equal directions and the same fingerprint.  Randomized over
click sequences with cycle drops, blob restores, event-log replay and a
memo cleared when full.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.core.packages as packages_module
from repro.core.elicitation import ElicitationConfig, PackageRecommender
from repro.core.items import ItemCatalog
from repro.core.preferences import Preference
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
        dropped = 0
        for trial in range(TRIALS):
            live = PackageRecommender(
                catalog, profile, _config(), batch_searcher=first.batch_searcher
            )
            twin = PackageRecommender(
                catalog, profile, _config(), batch_searcher=first.batch_searcher
            )
            for clicked, presented in _clicks(evaluator, trial):
                live.feedback(clicked, presented)
                cone = _assert_fresh(live)
                twin.feedback(clicked, presented)
                # One history, one cone object.
                assert _assert_fresh(twin) is cone
            dropped += live.preferences.num_dropped
        assert dropped > 0  # the sequences did close cycles

    def test_the_same_edges_in_another_order_are_another_cone(self, catalog, profile):
        first = PackageRecommender(catalog, profile, _config())
        rng = np.random.default_rng(0)
        a, b, c, d = (first.evaluator.random_package(rng) for _ in range(4))
        clicks = [(a, [a, b]), (c, [c, d])]
        forward = PackageRecommender(
            catalog, profile, _config(), batch_searcher=first.batch_searcher
        )
        backward = PackageRecommender(
            catalog, profile, _config(), batch_searcher=first.batch_searcher
        )
        for clicked, presented in clicks:
            forward.feedback(clicked, presented)
        for clicked, presented in reversed(clicks):
            backward.feedback(clicked, presented)
        # One edge set; the reduced rows keep insertion order, so the
        # direction matrices differ and so must the cones.
        assert _assert_fresh(backward) is not _assert_fresh(forward)
        assert backward.constraints.fingerprint() == forward.constraints.fingerprint()

    def test_a_standalone_recommender_keeps_its_own_memo(self, catalog, profile):
        one = PackageRecommender(catalog, profile, _config())
        two = PackageRecommender(catalog, profile, _config())
        for clicked, presented in _clicks(one.evaluator, 0):
            one.feedback(clicked, presented)
            two.feedback(clicked, presented)
        cone, other = _assert_fresh(one), _assert_fresh(two)
        assert cone is not other
        assert cone.directions.tobytes() == other.directions.tobytes()

    def test_foreign_vectors_never_share_a_cone(self, catalog, profile):
        live = PackageRecommender(catalog, profile, _config())
        evaluator = live.evaluator
        assert live.preferences.cone_key(evaluator) == ()
        clicks = list(_clicks(evaluator, 1))
        for clicked, presented in clicks[:4]:
            live.feedback(clicked, presented)
        _assert_fresh(live)
        # Another catalog's evaluator gives the same packages other vectors.
        other_catalog = ItemCatalog(np.random.default_rng(4).random((8, 3)))
        other = PackageRecommender(other_catalog, profile, _config()).evaluator
        assert live.preferences.cone_key(other) is None
        # The same edges in the same order, holding those vectors, added as
        # a snapshot restore adds them: an items-only key would hand this
        # store the live session's cone.
        restored = PackageRecommender(
            catalog, profile, _config(), batch_searcher=live.batch_searcher
        )
        for preference in live.preferences.preferences:
            restored.preferences.add(
                Preference.from_vectors(
                    other.vector(preference.preferred),
                    other.vector(preference.other),
                    preferred=preference.preferred,
                    other=preference.other,
                )
            )
        assert restored.preferences.cone_key(evaluator) is None
        assert _assert_fresh(restored) is not live.constraints
        size = len(evaluator._cone_memo)
        for clicked, presented in clicks[4:]:
            restored.feedback(clicked, presented)
            _assert_fresh(restored)
        assert len(evaluator._cone_memo) == size


class TestCleared:
    def test_a_full_memo_is_cleared_and_still_serves_fresh_cones(
        self, catalog, profile, monkeypatch
    ):
        monkeypatch.setattr(packages_module, "CONE_MEMO_CAPACITY", 4)
        first = PackageRecommender(catalog, profile, _config())
        memo = first.evaluator._cone_memo
        largest, clears = 0, 0
        for trial in range(TRIALS):
            recommender = PackageRecommender(
                catalog, profile, _config(), batch_searcher=first.batch_searcher
            )
            for clicked, presented in _clicks(first.evaluator, trial):
                size = len(memo)
                recommender.feedback(clicked, presented)
                _assert_fresh(recommender)
                clears += len(memo) < size
                largest = max(largest, len(memo))
        assert largest == 4
        assert clears > 0


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
            assert restored.preferences.cone_key(restored.evaluator) is None
            cone = _assert_fresh(restored)
            assert cone.directions.tobytes() == _assert_fresh(live).directions.tobytes()
        _serve(restored_engine, session_ids, rounds=2, seed=1)
        for session_id in session_ids:
            _assert_fresh(restored_engine.sessions.peek(session_id).recommender)

    def test_replayed_sessions_share_the_memo(self, catalog, profile, tmp_path):
        store = EventLogStore(os.fspath(tmp_path / "log"))
        engine = _engine(catalog, profile, store=store, max_active_sessions=1)
        resident = _engine(catalog, profile)
        session_ids = [engine.create_session(seed=i) for i in range(3)]
        for session_id, seed in zip(session_ids, range(3)):
            resident.create_session(session_id=session_id, seed=seed)
        rng = np.random.default_rng(2)
        for _ in range(3):
            for session_id in session_ids:
                round_ = engine.recommend(session_id)
                assert round_.presented == resident.recommend(session_id).presented
                recommender = engine.sessions.peek(session_id).recommender
                key = recommender.preferences.cone_key(engine.evaluator)
                cone = _assert_fresh(recommender)
                assert engine.evaluator._cone_memo[key] is cone
                never_evicted = resident.sessions.peek(session_id).recommender
                assert cone.directions.tobytes() == (
                    never_evicted.constraints.directions.tobytes()
                )
                click = int(rng.integers(len(round_.presented)))
                engine.feedback(session_id, click)
                resident.feedback(session_id, click)
        assert engine.stats().sessions_restored > 0
        engine.event_log.close()

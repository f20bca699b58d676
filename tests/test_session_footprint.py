"""What a live engine session holds: only its own state.

An engine keeps every session resident up to ``max_active_sessions``, so
per-session bytes set the serving process's peak memory.  The engine's
sessions share the engine's evaluator and batch searcher (and through the
evaluator one cone per click history), build no sampler or §3.4
maintainer they never use, and hold a slim preference DAG; a standalone
:class:`PackageRecommender` still builds its own objects.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig, PackageRecommender
from repro.core.items import ItemCatalog
from repro.core.packages import Package
from repro.data.columnar import NumericRangePredicate
from repro.experiments.harness import default_profile
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.service import EngineConfig, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

#: Traced bytes one identical-prefix session may add over four cache-hit
#: rounds.  Sessions that each rebuilt the evaluator and searcher and kept
#: a per-node vector dict measured about 18 KB here; the slim layout about
#: 10 KB; with the evaluator's interned package vectors and the engine's
#: shared configuration, 6.7 KB; with one cone per click history shared
#: through the evaluator's cone memo, 5.9 KB.
MAX_BYTES_PER_SESSION = 8 * 1024

ROUNDS = 4
SESSIONS = 200


def _elicitation(**overrides) -> ElicitationConfig:
    settings = dict(
        k=3,
        num_random=2,
        max_package_size=3,
        num_samples=100,
        search_sample_budget=2,
        search_beam_width=None,
        search_items_cap=None,
        seed=0,
    )
    settings.update(overrides)
    return ElicitationConfig(**settings)


@pytest.fixture
def catalog() -> ItemCatalog:
    return ItemCatalog(np.random.default_rng(0).random((60, 4)))


def _engine(catalog) -> RecommendationEngine:
    return RecommendationEngine(
        catalog, default_profile(4), EngineConfig(elicitation=_elicitation())
    )


def _serve(engine, user) -> str:
    session_id = engine.create_session(seed=session_seed_for(0, 0, True))
    for _ in range(ROUNDS):
        round_ = engine.recommend(session_id)
        engine.feedback(session_id, user.click(round_.presented))
    return session_id


class TestSharedPerCatalogObjects:
    def test_sessions_share_the_engines_evaluator_and_searcher(self, catalog):
        engine = _engine(catalog)
        user = build_user_population(engine.evaluator, 1, True, 0)[0]
        first, second = _serve(engine, user), _serve(engine, user)
        for session_id in (first, second):
            recommender = engine.sessions.peek(session_id).recommender
            assert recommender.batch_searcher is engine.batch_searcher
            assert recommender.evaluator is engine.evaluator
            assert recommender.config is engine.config.elicitation
            # The engine's pool provider serves every pool: neither the
            # session's sampler nor its maintainer was ever built.
            assert "sampler" not in vars(recommender)
            assert "_maintainer" not in vars(recommender)

    def test_standalone_recommender_builds_its_own_on_first_use(self, catalog):
        profile = default_profile(4)
        one = PackageRecommender(catalog, profile, _elicitation())
        two = PackageRecommender(catalog, profile, _elicitation())
        assert one.batch_searcher is not two.batch_searcher
        assert one.evaluator is one.batch_searcher.evaluator
        assert "sampler" not in vars(one)
        round_ = one.recommend()  # samples a pool: builds the sampler
        assert isinstance(vars(one)["sampler"], MetropolisHastingsSampler)
        one.feedback(round_.presented[0])  # maintains it: builds the maintainer
        assert vars(one)["_maintainer"].sampler is one.sampler

    def test_a_seed_beside_the_config_overrides_its_seed(self, catalog):
        profile = default_profile(4)
        passed = PackageRecommender(catalog, profile, _elicitation(seed=None), seed=5)
        configured = PackageRecommender(catalog, profile, _elicitation(seed=5))
        assert passed.rng.bit_generator.state == configured.rng.bit_generator.state
        overridden = PackageRecommender(catalog, profile, _elicitation(seed=9), seed=5)
        assert overridden.rng.bit_generator.state == configured.rng.bit_generator.state

    def test_a_foreign_searcher_is_rejected(self, catalog):
        engine = _engine(catalog)
        other = ItemCatalog(np.random.default_rng(1).random((60, 4)))
        with pytest.raises(ValueError, match="batch_searcher"):
            PackageRecommender(
                other,
                default_profile(4),
                _elicitation(),
                batch_searcher=engine.batch_searcher,
            )
        with pytest.raises(ValueError, match="max_package_size=2"):
            PackageRecommender(
                catalog,
                default_profile(4),
                _elicitation(max_package_size=2),
                batch_searcher=engine.batch_searcher,
            )


def _bytes_per_cache_hit_session(engine, sessions: int = SESSIONS) -> float:
    """Traced bytes each identical-prefix session adds after a warm-up."""
    users = build_user_population(engine.evaluator, sessions + 1, True, 0)
    _serve(engine, users[0])  # warm-up: every later round hits both caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for user in users[1:]:
            _serve(engine, user)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert engine.stats().pools_built == ROUNDS  # only the warm-up built
    return (after - before) / sessions


class TestSessionFootprint:
    def test_cache_hit_sessions_stay_under_the_memory_budget(self, catalog):
        per_session = _bytes_per_cache_hit_session(_engine(catalog))
        assert per_session < MAX_BYTES_PER_SESSION, (
            f"{per_session / 1024:.1f} KB per live session exceeds the "
            f"{MAX_BYTES_PER_SESSION / 1024:.0f} KB budget"
        )


class TestPredicateSessions:
    """An engine's catalog predicate is evaluated once, not per session.

    Sessions draw their exploration packages from the engine searcher's
    read-only eligible-item array.  A list per session cost 395 KB and
    11.5 ms per session (and per replay restore) on a 20k-item catalog.
    """

    @pytest.fixture
    def predicate(self):
        return NumericRangePredicate(0, high=0.5)

    @pytest.fixture
    def large_catalog(self) -> ItemCatalog:
        return ItemCatalog(np.random.default_rng(0).random((4000, 4)))

    def _engine(self, catalog, predicate) -> RecommendationEngine:
        return RecommendationEngine(
            catalog,
            default_profile(4),
            EngineConfig(elicitation=_elicitation()),
            catalog_predicate=predicate,
        )

    def test_sessions_share_one_read_only_eligible_array(
        self, large_catalog, predicate
    ):
        engine = self._engine(large_catalog, predicate)
        eligible = engine.batch_searcher.eligible_items
        assert np.array_equal(
            eligible, np.flatnonzero(predicate.eligible_mask(large_catalog))
        )
        assert not eligible.flags.writeable
        user = build_user_population(engine.evaluator, 1, True, 0)[0]
        eligible_set = set(eligible.tolist())
        for session_id in (_serve(engine, user), _serve(engine, user)):
            recommender = engine.sessions.peek(session_id).recommender
            assert recommender._eligible_items is eligible
            for package in recommender.last_round.presented:
                assert set(package.items) <= eligible_set

    def test_a_predicate_session_stays_under_the_memory_budget(
        self, large_catalog, predicate
    ):
        engine = self._engine(large_catalog, predicate)
        per_session = _bytes_per_cache_hit_session(engine, sessions=50)
        assert per_session < MAX_BYTES_PER_SESSION, (
            f"{per_session / 1024:.1f} KB per predicate session exceeds the "
            f"{MAX_BYTES_PER_SESSION / 1024:.0f} KB budget"
        )

    def test_exploration_draws_equal_choice_over_the_eligible_list(
        self, large_catalog, predicate
    ):
        recommender = PackageRecommender(
            large_catalog,
            default_profile(4),
            _elicitation(),
            catalog_predicate=predicate,
            seed=11,
        )
        eligible = [int(i) for i in np.flatnonzero(predicate.eligible_mask(large_catalog))]
        recommended = [Package.of(eligible[:2])]
        for _ in range(5):
            reference = np.random.default_rng()
            reference.bit_generator.state = recommender.rng.bit_generator.state
            round_ = recommender.recommend(recommended=recommended)
            expected, exclude = [], {recommended[0].items}
            while len(expected) < 2:
                size = int(reference.integers(1, 4))
                package = Package.of(
                    reference.choice(np.asarray(eligible), size=size, replace=False)
                )
                if package.items not in exclude:
                    exclude.add(package.items)
                    expected.append(package)
            assert round_.random_packages == expected
            assert recommender.rng.bit_generator.state == reference.bit_generator.state

    def test_a_searcher_built_with_another_predicate_is_rejected(
        self, large_catalog, predicate
    ):
        engine = self._engine(large_catalog, predicate)
        with pytest.raises(ValueError, match="catalog_predicate"):
            PackageRecommender(
                large_catalog,
                default_profile(4),
                _elicitation(),
                catalog_predicate=NumericRangePredicate(0, high=0.5),
                batch_searcher=engine.batch_searcher,
            )

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


class TestSessionFootprint:
    def test_cache_hit_sessions_stay_under_the_memory_budget(self, catalog):
        engine = _engine(catalog)
        users = build_user_population(engine.evaluator, SESSIONS + 1, True, 0)
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
        per_session = (after - before) / SESSIONS
        assert per_session < MAX_BYTES_PER_SESSION, (
            f"{per_session / 1024:.1f} KB per live session exceeds the "
            f"{MAX_BYTES_PER_SESSION / 1024:.0f} KB budget"
        )

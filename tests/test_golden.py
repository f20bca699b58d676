"""Golden values: what the elicitation loop computes, pinned as literals.

Every equivalence gate elsewhere compares one implementation with another
run of the same tree.  These tests compare against literals recorded from
an earlier tree instead, so a change that moves both sides of a gate at
once (how a click's cone is built, how package vectors are aggregated or
cached) still shows up:

* the :meth:`ConstraintSet.fingerprint` of a fixed cone, reduced and not
  (the fingerprint keys the pool repository and seeds every fill);
* a digest of every round a seeded engine serves over a fixed click
  stream: identical-prefix sessions whose users click with ψ = 0.7 noise,
  on an event-log store with fewer active slots than sessions, so sessions
  are swapped out and replayed between their rounds.

A change meant to alter what is served (a sampler, a ranking rule)
records new literals here and says why; any other change keeps them.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.packages import Package, PackageEvaluator
from repro.core.preferences import PreferenceStore
from repro.core.profiles import AggregateProfile
from repro.experiments.harness import default_profile
from repro.sampling.base import ConstraintSet
from repro.service import EngineConfig, EventLogStore, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

REDUCED_CONE_FINGERPRINT = "45e45444550d21015af20345e95db028"
FULL_CONE_FINGERPRINT = "773fab2d6f581af5bb5adc25309584b2"
SERVED_ROUNDS_DIGEST = "74afe684fbaa8e5f68d06ef1c79a52c0"

SESSIONS = 6
ROUNDS = 3


def _cone_store() -> PreferenceStore:
    """Three clicks whose preferences chain, so reduction drops some."""
    catalog = ItemCatalog(np.random.default_rng(5).random((12, 4)))
    evaluator = PackageEvaluator(
        catalog, AggregateProfile(["sum", "avg", "min", "max"]), 3
    )
    a, b, c, d, e = (
        Package.of(items) for items in ([0], [1, 2], [3, 4, 5], [6, 7], [8, 9, 10])
    )
    store = PreferenceStore(4, on_cycle="drop")
    store.add_click_feedback(evaluator, a, [a, b, c, d])
    store.add_click_feedback(evaluator, b, [b, c, e])
    store.add_click_feedback(evaluator, c, [c, d, e, a])  # c ≻ a closes a cycle
    return store


def test_cone_fingerprints_are_pinned():
    store = _cone_store()
    reduced = ConstraintSet.from_store(store)
    full = ConstraintSet.from_store(store, reduced=False)
    assert (len(store), store.num_dropped) == (7, 1)
    assert len(reduced) < len(full)
    assert reduced.fingerprint() == REDUCED_CONE_FINGERPRINT
    assert full.fingerprint() == FULL_CONE_FINGERPRINT


def _served_rounds_digest(log_dir: str):
    """Serve the fixed click stream; returns the digest and the engine stats."""
    catalog = ItemCatalog(np.random.default_rng(0).random((40, 4)))
    elicitation = ElicitationConfig(
        k=3,
        num_random=2,
        max_package_size=3,
        num_samples=100,
        search_sample_budget=2,
        search_beam_width=None,
        search_items_cap=None,
        seed=0,
    )
    store = EventLogStore(log_dir)
    engine = RecommendationEngine(
        catalog,
        default_profile(4),
        EngineConfig(elicitation=elicitation, max_active_sessions=2),
        store=store,
    )
    users = build_user_population(engine.evaluator, SESSIONS, True, 0, noise_psi=0.7)
    session_ids = [
        engine.create_session(seed=session_seed_for(0, index, True))
        for index in range(SESSIONS)
    ]
    digest = hashlib.blake2b(digest_size=16)
    for _ in range(ROUNDS):
        for index, (session_id, user) in enumerate(zip(session_ids, users)):
            round_ = engine.recommend(session_id)
            shown = ";".join(
                ",".join(str(item) for item in package.items)
                for package in round_.presented
            )
            digest.update(f"{index}:{shown}\n".encode())
            engine.feedback(session_id, user.click(round_.presented))
    stats = engine.stats()
    engine.close_repository()
    engine.event_log.close()
    return digest.hexdigest(), stats


def test_served_rounds_digest_is_pinned(tmp_path):
    digest, stats = _served_rounds_digest(os.fspath(tmp_path / "log"))
    assert stats.sessions_swapped_out > 0 and stats.sessions_restored > 0
    assert digest == SERVED_ROUNDS_DIGEST

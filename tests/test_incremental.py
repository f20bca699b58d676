"""Randomized equivalence suite for the incremental serving fast path.

Three contracts, each pinned across random trajectories:

* **ESS-deficit partial refill** (``EngineConfig.partial_refill``) changes
  pool *content* (reweighted survivors + a deficit fill instead of a
  maintained/fresh build), so its contract is *determinism*, pinned on every
  axis the repo already guarantees for fresh builds: re-running the same
  trajectory, reordering its pool fills, swapping sessions out through the
  event log, and replaying a restart all serve the same bytes.
* **Batched search** (``recommend_many``'s one walk across sessions) serves
  the same rounds as serial ``recommend`` on exact searches.
* **Swap-out** never changes a round, even under ``search_items_cap``: a
  round depends on the session's history, not on whether the session stayed
  in memory between rounds.

Each trial draws a full scenario — catalog, ψ, session seeds, ``k`` and a
click path — from one trial seed, runs multi-round trajectories across
heterogeneous sessions, and compares served rounds package-by-package.  On a
mismatch the trial is **shrunk**: the comparison re-runs with ascending
(sessions × rounds) budgets and the report names the minimal failing prefix
plus the full scenario needed to reproduce it.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.service.engine import EngineConfig, RecommendationEngine
from repro.service.eventlog import EventLogStore
from repro.service.store import MemorySessionStore

PROFILE = AggregateProfile(["sum", "avg", "max"])


# --------------------------------------------------------------- scenario gen
class Scenario:
    """Everything one trial needs, derived deterministically from its seed."""

    def __init__(
        self, trial_seed, num_sessions=2, num_rounds=3, search_items_cap=None
    ):
        rng = np.random.default_rng(trial_seed)
        self.trial_seed = trial_seed
        self.num_sessions = num_sessions
        self.num_rounds = num_rounds
        self.search_items_cap = search_items_cap
        num_items = int(rng.integers(18, 30))
        features = rng.random((num_items, 3))
        # A sprinkle of nulls so the null-aware bound path stays exercised.
        null_mask = rng.random((num_items, 3)) < 0.05
        features[null_mask] = np.nan
        self.catalog = ItemCatalog(features)
        self.psi = float(rng.choice([0.7, 0.85, 0.95]))
        self.k = int(rng.choice([2, 3]))
        self.engine_seed = int(rng.integers(0, 2**31 - 1))
        self.session_seeds = [
            int(rng.integers(0, 2**31 - 1)) for _ in range(num_sessions)
        ]
        # Click path: for each (round, session), an index into the presented
        # list (taken modulo its length at serve time).
        self.clicks = rng.integers(
            0, 10_000, size=(num_rounds, num_sessions)
        ).tolist()

    def elicitation(self):
        # Exact search by default (no beam or items-cap truncation): a capped
        # walk shares candidates across the sessions searched together, so
        # batched and serial serving legitimately differ under a cap.
        return ElicitationConfig(
            k=self.k,
            num_random=2,
            max_package_size=2,
            num_samples=24,
            sampler="mcmc",
            search_sample_budget=3,
            search_beam_width=None,
            search_items_cap=self.search_items_cap,
            noise_psi=self.psi,
            seed=0,
        )

    def engine(self, store=None, **overrides):
        config = EngineConfig(
            elicitation=self.elicitation(), seed=self.engine_seed, **overrides
        )
        return RecommendationEngine(self.catalog, PROFILE, config, store=store)

    def describe(self):
        return (
            f"trial_seed={self.trial_seed} items={self.catalog.num_items} "
            f"psi={self.psi} k={self.k} engine_seed={self.engine_seed} "
            f"session_seeds={self.session_seeds} clicks={self.clicks} "
            f"search_items_cap={self.search_items_cap}"
        )


def run_trajectory(scenario, engine, num_sessions, num_rounds, batched=False):
    """Serve a click trajectory; returns presented rounds as nested lists."""
    sids = [
        engine.create_session(seed=scenario.session_seeds[i])
        for i in range(num_sessions)
    ]
    served = []
    for round_index in range(num_rounds):
        if batched:
            rounds = engine.recommend_many(sids)
        else:
            rounds = [engine.recommend(sid) for sid in sids]
        for session_index, (sid, round_) in enumerate(zip(sids, rounds)):
            served.append(
                (round_index, sid, [list(p.items) for p in round_.presented])
            )
            presented = round_.presented
            click = scenario.clicks[round_index][session_index] % len(presented)
            try:
                engine.feedback(sid, click)
            except ValueError:
                pass  # a no-information click must no-op on both sides
    return served


def first_divergence(served_a, served_b):
    for a, b in zip(served_a, served_b):
        if a != b:
            return a, b
    return None


def assert_equivalent_trajectories(scenario, build_a, build_b, label_a, label_b):
    """Compare two engines over the scenario; shrink + report on mismatch.

    ``build_a`` / ``build_b`` are zero-argument engine factories (so the
    shrink loop can rebuild fresh engines per attempt).
    """

    def compare(num_sessions, num_rounds):
        a = run_trajectory(scenario, build_a(), num_sessions, num_rounds)
        b = run_trajectory(scenario, build_b(), num_sessions, num_rounds)
        return first_divergence(a, b)

    divergence = compare(scenario.num_sessions, scenario.num_rounds)
    if divergence is None:
        return
    # Shrink: the smallest (rounds, sessions) budget that still diverges is
    # found by ascending scan — everything is deterministic, so the first
    # failing budget is the minimal reproduction.
    for num_rounds in range(1, scenario.num_rounds + 1):
        for num_sessions in range(1, scenario.num_sessions + 1):
            shrunk = compare(num_sessions, num_rounds)
            if shrunk is not None:
                got_a, got_b = shrunk
                pytest.fail(
                    f"{label_a} != {label_b}: minimal failing prefix is "
                    f"{num_sessions} session(s) x {num_rounds} round(s); "
                    f"first divergence at (round, session, presented): "
                    f"{label_a}={got_a} vs {label_b}={got_b}; scenario: "
                    f"{scenario.describe()}"
                )
    got_a, got_b = divergence  # pragma: no cover - shrink always refires
    pytest.fail(
        f"{label_a} != {label_b} at full budget but not under shrink "
        f"(nondeterminism?): {got_a} vs {got_b}; {scenario.describe()}"
    )


# ------------------------------------- cross-round result reuse is invisible
@pytest.mark.parametrize("trial_seed", range(0, 60))
def test_carryover_equivalence(trial_seed):
    """Top-k cache on == off, bit-identical, across random trajectories.

    The shared top-k result cache is the one place a ranked list carries
    over from an earlier round: a later round on the same pool is answered
    from it instead of a new walk.  With it off (``topk_cache_size=0``)
    every session ranks its own pool on every round.  Both sides share the
    pool policy (refill off on even trials, on for odd ones) so the *only*
    difference is where the ranked list comes from.
    """
    scenario = Scenario(trial_seed)
    refill = dict(partial_refill=bool(trial_seed % 2))
    assert_equivalent_trajectories(
        scenario,
        lambda: scenario.engine(**refill),
        lambda: scenario.engine(topk_cache_size=0, **refill),
        "topk-cache-on",
        "topk-cache-off",
    )


# ---------------------------------------------- batched search is invisible
@pytest.mark.parametrize("trial_seed", range(60, 90))
def test_batched_equivalence(trial_seed):
    """recommend_many's across-session walk == serial recommend, exact search."""
    scenario = Scenario(trial_seed)
    batched = run_trajectory(
        scenario,
        scenario.engine(),
        scenario.num_sessions,
        scenario.num_rounds,
        batched=True,
    )
    serial = run_trajectory(
        scenario, scenario.engine(), scenario.num_sessions, scenario.num_rounds
    )
    assert first_divergence(batched, serial) is None, scenario.describe()


# ------------------------------------------------ partial refill is determined
@pytest.mark.parametrize("trial_seed", range(90, 130))
def test_partial_refill_rerun_determinism(trial_seed):
    """The fused engine re-serves the same bytes from a fresh instance."""
    scenario = Scenario(trial_seed)
    assert_equivalent_trajectories(
        scenario,
        lambda: scenario.engine(partial_refill=True),
        lambda: scenario.engine(partial_refill=True),
        "fused-run-1",
        "fused-run-2",
    )


@pytest.mark.parametrize("trial_seed", range(130, 160))
def test_partial_refill_shard_invariance(trial_seed):
    """However a fused engine's fill batches are split — here into one pool
    per fill, run in reverse — it serves the same rounds."""
    scenario = Scenario(trial_seed)

    def reversed_fills():
        engine = scenario.engine(partial_refill=True)
        repository = engine.pool_repository

        def fill_many(jobs):
            jobs = list(jobs)
            pools = {
                job.key: repository.fill_one(job.key, job.constraints, job.count)
                for job in reversed(jobs)
            }
            return {job.key: pools[job.key] for job in jobs}

        repository.fill_many = fill_many
        return engine

    assert_equivalent_trajectories(
        scenario,
        lambda: scenario.engine(partial_refill=True),
        reversed_fills,
        "arrival-order",
        "reversed",
    )


# --------------------------------------------- swap-out / replay / restart axes
@pytest.mark.parametrize("trial_seed", range(160, 185))
def test_fused_swap_out_replay_equivalence(trial_seed, tmp_path):
    """Fused engine under forced swap-out == never-swapped fused engine.

    ``max_active_sessions=1`` evicts every session on each acquire, so every
    round is served through an event-log checkpoint + replay restore — the
    partial-refill pools must round-trip through their content-addressed
    checkpoint references.
    """
    scenario = Scenario(trial_seed)
    store = EventLogStore(os.fspath(tmp_path / "log"))
    swapped = run_trajectory(
        scenario,
        scenario.engine(partial_refill=True, max_active_sessions=1, store=store),
        scenario.num_sessions,
        scenario.num_rounds,
    )
    reference = run_trajectory(
        scenario,
        scenario.engine(partial_refill=True),
        scenario.num_sessions,
        scenario.num_rounds,
    )
    assert first_divergence(swapped, reference) is None, scenario.describe()


@pytest.mark.parametrize("trial_seed", range(200, 224))
def test_capped_swap_out_equivalence(trial_seed):
    """Capped rounds do not depend on swap-out.

    Under ``search_items_cap`` a search stops at its best-so-far candidates,
    so any per-session search state kept in memory (and lost on swap-out)
    would change what a swapped session is served.  One engine evicts a
    session on every acquire and restores it from a snapshot; the other
    keeps every session in memory.  Both serve each session serially, so
    the batch composition of every walk is the same on both sides.
    """
    scenario = Scenario(
        trial_seed, num_sessions=3, num_rounds=4, search_items_cap=4
    )
    assert_equivalent_trajectories(
        scenario,
        lambda: scenario.engine(
            max_active_sessions=1, store=MemorySessionStore()
        ),
        lambda: scenario.engine(),
        "swapped",
        "in-memory",
    )


@pytest.mark.parametrize("trial_seed", range(185, 200))
def test_fused_restart_replay_serves_identical_next_round(trial_seed, tmp_path):
    """A restarted engine replaying the log serves the same next round.

    The live engine runs with ``max_active_sessions=1`` so every session has
    a current checkpoint in the log — a partial-refill pool's content is
    history-dependent (reweighted survivors), so like §3.4-maintained pools
    it survives restarts through its checkpointed content-addressed
    reference, not by re-derivation (the PR 6 crash-recovery caveat).  The
    log directory is copied before the live engine serves its next round, so
    the restarted engine replays exactly the pre-restart history.
    """
    scenario = Scenario(trial_seed)
    live = scenario.engine(
        partial_refill=True,
        max_active_sessions=1,
        store=EventLogStore(os.fspath(tmp_path / "log")),
    )
    run_trajectory(scenario, live, scenario.num_sessions, scenario.num_rounds)
    sids = [f"sess-{i + 1:06d}" for i in range(scenario.num_sessions)]
    shutil.copytree(tmp_path / "log", tmp_path / "log-copy")
    restarted = scenario.engine(
        partial_refill=True,
        store=EventLogStore(os.fspath(tmp_path / "log-copy")),
    )
    for sid in sids:
        round_live = live.recommend(sid)
        round_restarted = restarted.recommend(sid)
        assert [list(p.items) for p in round_live.presented] == [
            list(p.items) for p in round_restarted.presented
        ], f"session {sid}: {scenario.describe()}"


# -------------------------------------------------------- counters / satellite
def test_pool_build_counters_sum_to_builds():
    """adapt + maintain + fill + partial always sum to pools_built."""
    scenario = Scenario(4242)
    for overrides, warm_first_clicks in (
        ({}, None),
        ({"partial_refill": True}, None),
        ({"maintain_on_miss": False, "partial_refill": True}, None),
        ({}, 1),
    ):
        engine = scenario.engine(**overrides)
        if warm_first_clicks is not None:
            engine.warm_start(warm_first_clicks)
        run_trajectory(scenario, engine, 2, 3)
        stats = engine.stats()
        total = (
            stats.pools_sampled
            + stats.pools_maintained
            + stats.pools_adapted
            + stats.pools_partial_refilled
        )
        assert total == stats.pools_built, (overrides, stats.as_dict())
        assert stats.pools_built > 0, overrides


def test_pool_build_counters_sum_in_batched_path():
    scenario = Scenario(4243)
    engine = scenario.engine(partial_refill=True)
    run_trajectory(scenario, engine, 2, 3, batched=True)
    stats = engine.stats()
    assert (
        stats.pools_sampled
        + stats.pools_maintained
        + stats.pools_adapted
        + stats.pools_partial_refilled
        == stats.pools_built
    )
    assert stats.pools_partial_refilled > 0


def test_fused_engine_reports_incremental_counters():
    """The fused path actually runs: pools are partially refilled."""
    scenario = Scenario(4244)
    engine = scenario.engine(partial_refill=True)
    run_trajectory(scenario, engine, 2, 3)
    stats = engine.stats()
    assert stats.pools_partial_refilled > 0


def test_partial_refill_requires_a_noise_model():
    with pytest.raises(ValueError, match="noise model"):
        EngineConfig(
            elicitation=ElicitationConfig(noise_psi=None), partial_refill=True
        )


def test_refill_knob_validation():
    with pytest.raises(ValueError, match="refill_min_ess_fraction"):
        EngineConfig(refill_min_ess_fraction=0.0)
    with pytest.raises(ValueError, match="refill_psi"):
        EngineConfig(refill_psi=1.5)


def test_refill_psi_falls_back_to_elicitation_noise():
    config = EngineConfig(
        elicitation=ElicitationConfig(noise_psi=0.8), partial_refill=True
    )
    assert config.refill_noise_psi == 0.8
    override = EngineConfig(
        elicitation=ElicitationConfig(noise_psi=0.8),
        partial_refill=True,
        refill_psi=0.6,
    )
    assert override.refill_noise_psi == 0.6

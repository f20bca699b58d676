"""Benchmark: the incremental serving fast path (ESS-deficit partial refill).

Not a paper figure — this measures the incremental tentpole along its
acceptance axes (see DESIGN.md "Incremental serving").  Two identically
seeded engines serve the same private-exploration click streams (every
post-click constraint set is a fresh fingerprint, so every post-click round
pays a pool miss):

* **fused** — the incremental fast path: ESS-deficit partial refill
  reweights the stale pool under ψ and draws only the Kish-ESS deficit;
* **from-scratch** — ``maintain_on_miss=False``: every post-click round
  re-samples its full pool, the pre-incremental path the equivalence suite
  compares against.

Both engines run the same cold top-k walk per round; only pool provisioning
differs.

The headline is the **post-click round serve latency** (`recommend` after
feedback): the deeper the session, the tighter its constraint set and the
more a from-scratch fill costs (shared rejection blocks degrade towards
per-set MCMC), while the refill path keeps paying only for what the click
invalidated.  The finer-grained attribution isolates the refill half: the
miss-path provisioning call alone (``recommender.sample_pool()``), refill
vs the §3.4 hard-maintenance default, on the smaller-pool workload where
maintenance is the binding baseline.

Headline metrics asserted and recorded for the CI gate
(``tools/bench_gate.py``):

* ``incremental_search_speedup`` — median from-scratch post-click round
  latency over median fused round latency, floor 2x;
* ``partial_refill_speedup`` — median maintained-miss provisioning latency
  over median refilled-miss latency, floor 1.2x.

The regenerated table lands in ``results/bench_incremental.txt``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.experiments.harness import ExperimentScale, build_evaluator
from repro.service import EngineConfig, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

#: Acceptance floors (pinned in tools/bench_gate.py).
MIN_ROUND_SPEEDUP = 2.0
MIN_REFILL_SPEEDUP = 1.2

NUM_ITEMS = 500
NUM_FEATURES = 4
CLICK_NOISE_PSI = 0.9
REFILL_PSI = 0.85
REFILL_MIN_ESS_FRACTION = 0.5

# --- fused per-round workload: sampling-heavy pools, deep sessions ----------
ROUND_NUM_SESSIONS = 6
ROUND_NUM_ROUNDS = 5  # one cold round + four post-click miss rounds
ROUND_NUM_SAMPLES = 4_000

# --- provisioning-only workload: refill vs hard maintenance -----------------
MISS_NUM_SESSIONS = 8
MISS_NUM_ROUNDS = 4
MISS_NUM_SAMPLES = 1_000


def _engine(num_samples, **overrides) -> RecommendationEngine:
    scale = ExperimentScale(
        num_tuples=NUM_ITEMS, num_packages=500, num_samples=200,
        num_preferences=200, num_features=NUM_FEATURES, num_gaussians=1,
        max_package_size=4, seed=0,
    )
    evaluator = build_evaluator("UNI", scale, num_features=NUM_FEATURES)
    elicitation = ElicitationConfig(
        k=3,
        num_random=2,  # private exploration: every post-click key is fresh
        max_package_size=3,
        num_samples=num_samples,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=100,
        search_items_cap=40,
        seed=0,
    )
    config = EngineConfig(elicitation=elicitation, seed=1, **overrides)
    return RecommendationEngine(evaluator.catalog, evaluator.profile, config)


def _run_round_workload(engine, num_sessions, num_rounds):
    """Serve the click stream; return post-click round serve latencies."""
    users = build_user_population(
        engine.evaluator,
        num_sessions,
        identical_prefix=True,
        user_seed=0,
        noise_psi=CLICK_NOISE_PSI,
    )
    ids = [
        engine.create_session(
            seed=session_seed_for(0, index, identical_prefix=False)
        )
        for index in range(num_sessions)
    ]
    rounds = {sid: engine.recommend(sid) for sid in ids}
    latencies = []
    for _round in range(1, num_rounds):
        for index, sid in enumerate(ids):
            engine.feedback(sid, users[index].click(rounds[sid].presented))
            tick = time.perf_counter()
            rounds[sid] = engine.recommend(sid)
            latencies.append(time.perf_counter() - tick)
    return np.asarray(latencies), engine.stats()


def _run_miss_workload(engine, num_sessions, num_rounds):
    """Like the round workload, but timing only the miss provisioning call.

    The provisioning call is made explicitly after each click — it is
    exactly the work the subsequent ``recommend`` would trigger lazily,
    timed in isolation from the (identical) top-k search.
    """
    users = build_user_population(
        engine.evaluator,
        num_sessions,
        identical_prefix=True,
        user_seed=0,
        noise_psi=CLICK_NOISE_PSI,
    )
    ids = [
        engine.create_session(
            seed=session_seed_for(0, index, identical_prefix=False)
        )
        for index in range(num_sessions)
    ]
    rounds = {sid: engine.recommend(sid) for sid in ids}
    provisioning = []
    for _round in range(1, num_rounds):
        for index, sid in enumerate(ids):
            engine.feedback(sid, users[index].click(rounds[sid].presented))
            entry = engine.sessions.acquire(sid)
            tick = time.perf_counter()
            entry.recommender.sample_pool()  # the miss path under test
            provisioning.append(time.perf_counter() - tick)
            rounds[sid] = engine.recommend(sid)
    return np.asarray(provisioning), engine.stats()


@pytest.fixture(scope="module")
def incremental_report():
    from bench_utils import record_ci_metric, write_results

    # ----------------------------------------- fused vs from-scratch rounds
    fused_times, fused_stats = _run_round_workload(
        _engine(ROUND_NUM_SAMPLES, partial_refill=True, refill_psi=REFILL_PSI,
                refill_min_ess_fraction=REFILL_MIN_ESS_FRACTION),
        ROUND_NUM_SESSIONS, ROUND_NUM_ROUNDS,
    )
    scratch_times, scratch_stats = _run_round_workload(
        _engine(ROUND_NUM_SAMPLES, maintain_on_miss=False),
        ROUND_NUM_SESSIONS, ROUND_NUM_ROUNDS,
    )
    p50_fused = float(np.median(fused_times))
    p50_scratch = float(np.median(scratch_times))
    round_speedup = p50_scratch / p50_fused if p50_fused else 0.0

    # --------------------------------------- refilled vs maintained misses
    refilled_times, refilled_stats = _run_miss_workload(
        _engine(MISS_NUM_SAMPLES, partial_refill=True, refill_psi=REFILL_PSI,
                refill_min_ess_fraction=REFILL_MIN_ESS_FRACTION),
        MISS_NUM_SESSIONS, MISS_NUM_ROUNDS,
    )
    maintained_times, maintained_stats = _run_miss_workload(
        _engine(MISS_NUM_SAMPLES),
        MISS_NUM_SESSIONS, MISS_NUM_ROUNDS,
    )
    p50_refilled = float(np.median(refilled_times))
    p50_maintained = float(np.median(maintained_times))
    refill_speedup = p50_maintained / p50_refilled if p50_refilled else 0.0

    header = (
        "Incremental serving — ESS-deficit partial refill\n"
        f"post-click rounds {round_speedup:.1f}x faster via the fused path "
        f"(floor {MIN_ROUND_SPEEDUP}x); refilled miss provisioning "
        f"{refill_speedup:.1f}x faster than hard maintenance "
        f"(floor {MIN_REFILL_SPEEDUP}x)"
    )
    body = "\n".join(
        [
            "[post-click round serve latency (asserted)]",
            f"  {ROUND_NUM_SESSIONS} sessions x {ROUND_NUM_ROUNDS} rounds, "
            f"{ROUND_NUM_SAMPLES}-sample pools, private exploration "
            f"(every post-click round is a pool miss), psi={REFILL_PSI}",
            f"  fused:        p50={p50_fused * 1e3:.3f}ms "
            f"mean={fused_times.mean() * 1e3:.3f}ms over "
            f"{fused_times.size} rounds "
            f"({fused_stats.pools_partial_refilled} pools refilled)",
            f"  from-scratch: p50={p50_scratch * 1e3:.3f}ms "
            f"mean={scratch_times.mean() * 1e3:.3f}ms "
            f"({scratch_stats.pools_sampled} pools resampled)",
            f"  p50 speedup: {round_speedup:.2f}x "
            f"(sum ratio {scratch_times.sum() / fused_times.sum():.2f}x, "
            f"informational)",
            "",
            "[miss-path provisioning latency (asserted)]",
            f"  {MISS_NUM_SESSIONS} sessions x {MISS_NUM_ROUNDS} rounds, "
            f"{MISS_NUM_SAMPLES}-sample pools, "
            f"ess_floor={REFILL_MIN_ESS_FRACTION}",
            f"  refilled:   p50={p50_refilled * 1e3:.3f}ms "
            f"mean={refilled_times.mean() * 1e3:.3f}ms over "
            f"{refilled_times.size} misses",
            f"  maintained: p50={p50_maintained * 1e3:.3f}ms "
            f"mean={maintained_times.mean() * 1e3:.3f}ms",
            f"  p50 speedup: {refill_speedup:.2f}x "
            f"(sum ratio "
            f"{maintained_times.sum() / refilled_times.sum():.2f}x, "
            f"informational)",
            "",
            "[build accounting]",
            f"  fused engine:      built={fused_stats.pools_built} "
            f"partial_refilled={fused_stats.pools_partial_refilled} "
            f"sampled={fused_stats.pools_sampled}",
            f"  refilled engine:   built={refilled_stats.pools_built} "
            f"partial_refilled={refilled_stats.pools_partial_refilled} "
            f"sampled={refilled_stats.pools_sampled}",
            f"  maintained engine: built={maintained_stats.pools_built} "
            f"maintained={maintained_stats.pools_maintained} "
            f"sampled={maintained_stats.pools_sampled}",
        ]
    )
    print("\n" + header + "\n\n" + body)
    write_results("bench_incremental.txt", header + "\n\n" + body)
    record_ci_metric(
        "incremental_search_speedup",
        round_speedup,
        MIN_ROUND_SPEEDUP,
        source="benchmarks/test_bench_incremental.py",
        description=(
            f"Median from-scratch post-click round serve latency over median "
            f"fused (ESS-deficit refill) round latency, "
            f"{ROUND_NUM_SESSIONS} private-exploration sessions x "
            f"{ROUND_NUM_ROUNDS} rounds, {ROUND_NUM_SAMPLES}-sample pools"
        ),
    )
    record_ci_metric(
        "partial_refill_speedup",
        refill_speedup,
        MIN_REFILL_SPEEDUP,
        source="benchmarks/test_bench_incremental.py",
        description=(
            f"Median hard-maintenance miss-provisioning latency over median "
            f"ESS-deficit refill latency, {MISS_NUM_SESSIONS} "
            f"private-exploration sessions x {MISS_NUM_ROUNDS} rounds, "
            f"{MISS_NUM_SAMPLES}-sample pools"
        ),
    )
    return {
        "round_speedup": round_speedup,
        "refill_speedup": refill_speedup,
        "fused_stats": fused_stats,
        "scratch_stats": scratch_stats,
        "refilled_stats": refilled_stats,
        "maintained_stats": maintained_stats,
        "fused_times": fused_times,
        "refilled_times": refilled_times,
        "maintained_times": maintained_times,
    }


def test_fused_rounds_beat_from_scratch_rounds(incremental_report):
    """The acceptance headline: >= 2x post-click rounds via the fused path."""
    assert incremental_report["round_speedup"] >= MIN_ROUND_SPEEDUP, (
        f"fused-round speedup {incremental_report['round_speedup']:.2f}x "
        f"below the {MIN_ROUND_SPEEDUP}x floor"
    )


def test_refilled_misses_beat_maintained_misses(incremental_report):
    assert incremental_report["refill_speedup"] >= MIN_REFILL_SPEEDUP, (
        f"partial-refill speedup {incremental_report['refill_speedup']:.2f}x "
        f"below the {MIN_REFILL_SPEEDUP}x floor"
    )


def test_every_miss_took_the_path_under_test(incremental_report):
    fused = incremental_report["fused_stats"]
    scratch = incremental_report["scratch_stats"]
    # Every post-click round was a genuine miss in both engines, and each
    # engine provisioned it through the path under test.
    post_click = incremental_report["fused_times"].size
    assert fused.pools_partial_refilled >= post_click
    assert scratch.pools_sampled >= post_click

    refilled = incremental_report["refilled_stats"]
    maintained = incremental_report["maintained_stats"]
    assert refilled.pools_partial_refilled >= (
        incremental_report["refilled_times"].size
    )
    assert maintained.pools_maintained >= (
        incremental_report["maintained_times"].size
    )


def test_build_counters_sum_to_builds(incremental_report):
    for stats in (
        incremental_report["fused_stats"],
        incremental_report["refilled_stats"],
        incremental_report["maintained_stats"],
        incremental_report["scratch_stats"],
    ):
        assert stats.pools_built == (
            stats.pools_sampled
            + stats.pools_maintained
            + stats.pools_adapted
            + stats.pools_partial_refilled
        )

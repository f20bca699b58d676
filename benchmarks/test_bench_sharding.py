"""Benchmark: snapshot compaction over the shared pool repository.

Not a paper figure — 50 identical-prefix sessions (the cold-start burst: all
sharing one pool per round) are snapshotted into a JSON store twice:
embedded pools (the pre-compaction format) vs fingerprint references with
the pool payload stored once in the store's pool table.  The asserted floor:
reference snapshots shrink the store by ≥ 5x (measured far higher — the pool
payload is the snapshot, for any realistic pool size).  A fresh engine over
the compact store must then restore sessions without resampling a pool.

The headline number is recorded in ``BENCH_ci.json`` and re-validated
against its pinned floor by ``tools/bench_gate.py`` (the CI bench-gate job).
The regenerated table lands in ``results/bench_sharding.txt``.
"""

from __future__ import annotations

import pytest

from repro.core.elicitation import ElicitationConfig
from repro.experiments.harness import build_evaluator
from repro.service import EngineConfig, JsonSessionStore, RecommendationEngine
from repro.simulation.traffic import session_seed_for

#: Acceptance floor (pinned in tools/bench_gate.py).
MIN_COMPACTION_RATIO = 5.0

NUM_SNAPSHOT_SESSIONS = 50  # identical-prefix compaction workload
SNAPSHOT_ROUNDS = 2


def _engine(scale, store) -> RecommendationEngine:
    evaluator = build_evaluator("UNI", scale, num_features=4)
    config = EngineConfig(
        # Larger pools stress the thing compaction removes: the embedded floats.
        elicitation=ElicitationConfig(
            k=3,
            num_random=2,
            max_package_size=3,
            num_samples=400,
            sampler="mcmc",
            search_sample_budget=3,
            search_beam_width=150,
            search_items_cap=60,
            seed=0,
        ),
        seed=1,
    )
    return RecommendationEngine(
        evaluator.catalog, evaluator.profile, config, store=store
    )


def _run_compaction(scale, tmp_path_factory):
    """Snapshot 50 pool-sharing sessions embedded vs by reference."""
    compact_store = JsonSessionStore(
        str(tmp_path_factory.mktemp("compact-store"))
    )
    embedded_store = JsonSessionStore(
        str(tmp_path_factory.mktemp("embedded-store"))
    )
    engine = _engine(scale, compact_store)
    ids = [
        engine.create_session(
            seed=session_seed_for(0, index, identical_prefix=True)
        )
        for index in range(NUM_SNAPSHOT_SESSIONS)
    ]
    for _round in range(SNAPSHOT_ROUNDS):
        rounds = engine.recommend_many(ids)
        for sid, round_ in zip(ids, rounds):
            engine.feedback(sid, 0)
    for sid in ids:
        embedded_store.save(sid, engine.snapshot(sid))
        compact_store.save(sid, engine.snapshot(sid, embed_pool=False))
    embedded_bytes = embedded_store.total_bytes()
    compact_bytes = compact_store.total_bytes()

    # Restart sanity: a fresh engine over the compact store restores every
    # session by fingerprint without resampling a single pool.
    restarted = _engine(scale, compact_store)
    restored_rounds = [restarted.recommend(sid) for sid in ids[:5]]
    return {
        "embedded_bytes": embedded_bytes,
        "compact_bytes": compact_bytes,
        "ratio": embedded_bytes / compact_bytes,
        "pool_keys": len(compact_store.list_pool_keys()),
        "restored_rounds": restored_rounds,
        "restarted_stats": restarted.stats(),
    }


@pytest.fixture(scope="module")
def compaction_report(scale, tmp_path_factory):
    from bench_utils import record_ci_metric, write_results

    compaction = _run_compaction(scale, tmp_path_factory)
    header = (
        "Snapshot compaction — fingerprint-reference snapshots over the pool "
        f"repository: {compaction['ratio']:.1f}x "
        f"(floor {MIN_COMPACTION_RATIO}x)"
    )
    body = "\n".join(
        [
            "[snapshot compaction (asserted)]",
            f"  {NUM_SNAPSHOT_SESSIONS} identical-prefix sessions x "
            f"{SNAPSHOT_ROUNDS} rounds, 400-sample pools",
            f"  embedded-pool snapshots: {compaction['embedded_bytes']:,} bytes",
            f"  reference snapshots:     {compaction['compact_bytes']:,} bytes "
            f"({compaction['pool_keys']} shared pool payload(s))",
            f"  compaction ratio: {compaction['ratio']:.1f}x",
            f"  restart restore: {len(compaction['restored_rounds'])} sessions, "
            f"pools_sampled={compaction['restarted_stats'].pools_sampled}",
        ]
    )
    print("\n" + header + "\n\n" + body)
    write_results("bench_sharding.txt", header + "\n\n" + body)
    record_ci_metric(
        "snapshot_compaction_ratio",
        compaction["ratio"],
        MIN_COMPACTION_RATIO,
        source="benchmarks/test_bench_sharding.py",
        description=(
            f"Embedded-pool snapshot-store bytes over fingerprint-reference "
            f"bytes, {NUM_SNAPSHOT_SESSIONS} pool-sharing sessions"
        ),
    )
    return compaction


def test_snapshot_store_shrinks_by_the_floor(compaction_report):
    """The acceptance floor: reference snapshots shrink the store >= 5x."""
    ratio = compaction_report["ratio"]
    assert ratio >= MIN_COMPACTION_RATIO, (
        f"compaction ratio {ratio:.2f}x below the {MIN_COMPACTION_RATIO}x floor"
    )


def test_sessions_share_one_pool_payload(compaction_report):
    """Identical-prefix sessions must deduplicate to a handful of payloads
    (one per round-prefix), not one per session."""
    compaction = compaction_report
    assert compaction["pool_keys"] <= SNAPSHOT_ROUNDS + 1
    assert compaction["pool_keys"] < NUM_SNAPSHOT_SESSIONS


def test_restart_restores_without_resampling(compaction_report):
    """Pools are re-resolved by fingerprint from the store's pool table."""
    compaction = compaction_report
    assert all(round_.recommended for round_ in compaction["restored_rounds"])
    assert compaction["restarted_stats"].pools_sampled == 0
    assert compaction["restarted_stats"].sessions_restored == 5

"""Benchmark: the fingerprint-partitioned pool service (sharding + compaction).

Not a paper figure — this measures the sharded-pool-service tentpole along
its two acceptance axes:

* **Sharding equivalence** — a heterogeneous ``recommend_many`` workload
  (every session its own constraint fingerprint after round one) served by a
  ``ShardedPoolRepository`` with 4 inline shards must produce
  **bit-identical rounds** to the unsharded engine (1 shard, inline).  Fills
  are key-deterministic, so sharding changes *where* pools are built, never
  what is served.  The asserted metric is the equivalence indicator itself
  (1.0 = every presented package of every round identical).
* **Process-backend equivalence** — the same workload served by 4
  process-backed shards (``pool_shard_backend="process"``): fills execute in
  worker processes (asserted via recorded worker PIDs) yet every round is
  bit-identical to the inline engine, because a :class:`FillSpec` carries the
  derived seed across the process boundary.  The wall-clock ratio is recorded
  as ``sharding_process_fill_speedup`` (informational floor 0.0 on CI; the
  nightly multi-core job re-runs this module with
  ``REQUIRE_MULTICORE_SPEEDUP=1`` which turns the > 1.2x assertion on).
* **Snapshot compaction** — 50 identical-prefix sessions (the cold-start
  burst: all sharing one pool per round) snapshotted into a JSON store twice:
  embedded pools (the pre-compaction format) vs fingerprint references with
  the pool payload stored once in the store's pool table.  The asserted
  floor: reference snapshots shrink the store by ≥ 5x (measured far higher —
  the pool payload is the snapshot, for any realistic pool size).

Both headline numbers are recorded in ``BENCH_ci.json`` and re-validated
against pinned floors by ``tools/bench_gate.py`` (the CI bench-gate job).
The regenerated table lands in ``results/bench_sharding.txt``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.elicitation import ElicitationConfig
from repro.experiments.harness import build_evaluator
from repro.service import EngineConfig, JsonSessionStore, RecommendationEngine
from repro.simulation.traffic import build_user_population, session_seed_for

#: Acceptance floors (pinned in tools/bench_gate.py).
MIN_EQUIVALENCE = 1.0
MIN_COMPACTION_RATIO = 5.0
#: Only asserted when REQUIRE_MULTICORE_SPEEDUP=1 (the nightly multi-core job).
MULTICORE_SPEEDUP_FLOOR = 1.2

NUM_SESSIONS = 24  # heterogeneous equivalence workload
NUM_ROUNDS = 3
NUM_SHARDS = 4
NUM_SNAPSHOT_SESSIONS = 50  # identical-prefix compaction workload
SNAPSHOT_ROUNDS = 2


def _elicitation_config(**overrides) -> ElicitationConfig:
    defaults = dict(
        k=3,
        num_random=2,
        max_package_size=3,
        num_samples=150,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=150,
        search_items_cap=60,
        seed=0,
    )
    defaults.update(overrides)
    return ElicitationConfig(**defaults)


def _engine(scale, shards, backend, store=None, **overrides) -> RecommendationEngine:
    evaluator = build_evaluator("UNI", scale, num_features=4)
    config = EngineConfig(
        elicitation=overrides.pop("elicitation", _elicitation_config()),
        seed=1,
        pool_shards=shards,
        pool_shard_backend=backend,
        **overrides,
    )
    return RecommendationEngine(
        evaluator.catalog, evaluator.profile, config, store=store
    )


def _run_heterogeneous(engine):
    """Drive the batched heterogeneous workload; returns (rounds, seconds)."""
    users = build_user_population(
        engine.evaluator, NUM_SESSIONS, identical_prefix=False, user_seed=0
    )
    start = time.perf_counter()
    ids = [
        engine.create_session(
            seed=session_seed_for(0, index, identical_prefix=False)
        )
        for index in range(NUM_SESSIONS)
    ]
    presented = []
    for _round in range(NUM_ROUNDS):
        rounds = engine.recommend_many(ids)
        presented.append(
            [[p.items for p in round_.presented] for round_ in rounds]
        )
        for index, (sid, round_) in enumerate(zip(ids, rounds)):
            engine.feedback(sid, users[index].click(round_.presented))
    return presented, time.perf_counter() - start


def _run_compaction(scale, tmp_path_factory):
    """Snapshot 50 pool-sharing sessions embedded vs by reference."""
    compact_store = JsonSessionStore(
        str(tmp_path_factory.mktemp("sharding-compact"))
    )
    embedded_store = JsonSessionStore(
        str(tmp_path_factory.mktemp("sharding-embedded"))
    )
    # Larger pools stress the thing compaction removes: the embedded floats.
    engine = _engine(
        scale,
        NUM_SHARDS,
        "inline",
        store=compact_store,
        elicitation=_elicitation_config(num_samples=400),
    )
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
    restarted = _engine(
        scale,
        NUM_SHARDS,
        "inline",
        store=compact_store,
        elicitation=_elicitation_config(num_samples=400),
    )
    restored_rounds = [restarted.recommend(sid) for sid in ids[:5]]
    restarted_stats = restarted.stats()
    engine.close_repository()
    restarted.close_repository()
    return {
        "embedded_bytes": embedded_bytes,
        "compact_bytes": compact_bytes,
        "ratio": embedded_bytes / compact_bytes,
        "pool_keys": len(compact_store.list_pool_keys()),
        "restored_rounds": restored_rounds,
        "restarted_stats": restarted_stats,
    }


@pytest.fixture(scope="module")
def sharding_reports(scale, tmp_path_factory):
    from bench_utils import record_ci_metric, write_results

    unsharded = _engine(scale, 1, "inline")
    rounds_unsharded, seconds_unsharded = _run_heterogeneous(unsharded)
    sharded = _engine(scale, NUM_SHARDS, "inline")
    rounds_sharded, seconds_sharded = _run_heterogeneous(sharded)
    sharded_stats = sharded.stats()
    sharded.close_repository()

    process = _engine(scale, NUM_SHARDS, "process")
    rounds_process, seconds_process = _run_heterogeneous(process)
    worker_pids = set()
    for shard in process.pool_repository.shards:
        for key in shard.keys():
            pid = shard.peek(key).stats.get("fill_worker_pid")
            if pid is not None:
                worker_pids.add(pid)
    process_stats = process.stats()
    process.close_repository()

    equivalence = 1.0 if rounds_sharded == rounds_unsharded else 0.0
    out_of_process = bool(worker_pids) and os.getpid() not in worker_pids
    process_equivalence = (
        1.0 if rounds_process == rounds_unsharded and out_of_process else 0.0
    )
    process_speedup = (
        seconds_unsharded / seconds_process if seconds_process else 0.0
    )
    compaction = _run_compaction(scale, tmp_path_factory)

    repo = sharded_stats.pool_repository
    shard_fills = [shard["fills"] for shard in repo["per_shard"]]
    header = (
        "Sharded pool service — fingerprint-partitioned PoolRepository\n"
        f"{NUM_SESSIONS} heterogeneous sessions x {NUM_ROUNDS} rounds, "
        f"{NUM_SHARDS} inline shards vs unsharded: "
        f"bit-identical={equivalence == 1.0} "
        f"(floor: exact equivalence); process backend "
        f"bit-identical={process_equivalence == 1.0}; snapshot compaction = "
        f"{compaction['ratio']:.1f}x (floor {MIN_COMPACTION_RATIO}x)"
    )
    process_repo = process_stats.pool_repository
    body = "\n".join(
        [
            "[sharding equivalence (asserted)]",
            f"  unsharded: 1 shard inline, {seconds_unsharded:.3f}s",
            f"  sharded:   {NUM_SHARDS} shards inline, {seconds_sharded:.3f}s",
            f"  per-shard fills: {shard_fills} "
            f"(multi_shard_fill_batches={repo['multi_shard_fill_batches']})",
            f"  rounds bit-identical: {equivalence == 1.0}",
            "",
            "[process backend equivalence (asserted)]",
            f"  process:   {NUM_SHARDS} shards process, {seconds_process:.3f}s "
            f"(x{process_speedup:.2f} vs unsharded; informational on "
            f"single-core CI, nightly asserts > {MULTICORE_SPEEDUP_FLOOR}x)",
            f"  distinct worker pids: {len(worker_pids)} "
            f"(engine pid excluded: {out_of_process}; "
            f"restarts={process_repo.get('worker_restarts', 0)}, "
            f"inline_fallbacks={process_repo.get('inline_fallbacks', 0)})",
            f"  rounds bit-identical: {rounds_process == rounds_unsharded}",
            "",
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
        "sharding_equivalence",
        equivalence,
        MIN_EQUIVALENCE,
        source="benchmarks/test_bench_sharding.py",
        description=(
            f"1.0 iff {NUM_SHARDS} inline shards serve bit-identical "
            f"rounds to the unsharded engine, {NUM_SESSIONS} heterogeneous "
            f"sessions x {NUM_ROUNDS} rounds"
        ),
        unit="",
    )
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
    record_ci_metric(
        "sharding_process_equivalence",
        process_equivalence,
        MIN_EQUIVALENCE,
        source="benchmarks/test_bench_sharding.py",
        description=(
            f"1.0 iff {NUM_SHARDS} process-backed shards serve bit-identical "
            f"rounds to the unsharded engine with fills executing in worker "
            f"processes (distinct PIDs observed)"
        ),
        unit="",
    )
    record_ci_metric(
        "sharding_process_fill_speedup",
        process_speedup,
        0.0,  # informational here; nightly multi-core job asserts > 1.2x
        source="benchmarks/test_bench_sharding.py",
        description=(
            f"Unsharded wall time over {NUM_SHARDS}-process-shard wall time "
            f"(informational on CI; nightly asserts > "
            f"{MULTICORE_SPEEDUP_FLOOR}x on a multi-core host)"
        ),
    )
    return {
        "equivalence": equivalence,
        "sharded_stats": sharded_stats,
        "process_equivalence": process_equivalence,
        "process_speedup": process_speedup,
        "process_stats": process_stats,
        "worker_pids": worker_pids,
        "compaction": compaction,
    }


def test_sharded_rounds_are_bit_identical_to_unsharded(sharding_reports):
    """The acceptance headline: sharding must never change what is served."""
    assert sharding_reports["equivalence"] >= MIN_EQUIVALENCE


def test_fills_were_partitioned_across_shards(sharding_reports):
    """The heterogeneous workload must exercise real partitioning: several
    shards fill pools, and at least one batch spanned multiple shards."""
    repo = sharding_reports["sharded_stats"].pool_repository
    assert repo["num_shards"] == NUM_SHARDS
    assert repo["backend"] == "inline"
    busy = sum(shard["fills"] > 0 for shard in repo["per_shard"])
    assert busy >= 2
    assert repo["multi_shard_fill_batches"] >= 1


def test_process_backend_rounds_are_bit_identical(sharding_reports):
    """The FillSpec seam: process-parallel fills must serve the same rounds,
    and the fills must demonstrably run in worker processes."""
    assert sharding_reports["process_equivalence"] >= MIN_EQUIVALENCE
    worker_pids = sharding_reports["worker_pids"]
    assert worker_pids and os.getpid() not in worker_pids
    repo = sharding_reports["process_stats"].pool_repository
    assert repo["backend"] == "process"
    assert repo["worker_restarts"] == 0
    assert repo["inline_fallbacks"] == 0


@pytest.mark.skipif(
    os.environ.get("REQUIRE_MULTICORE_SPEEDUP") != "1",
    reason="multi-core speedup asserted only in the nightly job "
    "(REQUIRE_MULTICORE_SPEEDUP=1)",
)
def test_process_backend_beats_inline_on_multicore(sharding_reports):
    """Nightly multi-core floor: process shards must escape the GIL."""
    speedup = sharding_reports["process_speedup"]
    assert speedup > MULTICORE_SPEEDUP_FLOOR, (
        f"process-shard fill speedup {speedup:.2f}x below the "
        f"{MULTICORE_SPEEDUP_FLOOR}x multi-core floor"
    )


def test_snapshot_store_shrinks_by_the_floor(sharding_reports):
    """The acceptance floor: reference snapshots shrink the store >= 5x."""
    ratio = sharding_reports["compaction"]["ratio"]
    assert ratio >= MIN_COMPACTION_RATIO, (
        f"compaction ratio {ratio:.2f}x below the {MIN_COMPACTION_RATIO}x floor"
    )


def test_sessions_share_one_pool_payload(sharding_reports):
    """Identical-prefix sessions must deduplicate to a handful of payloads
    (one per round-prefix), not one per session."""
    compaction = sharding_reports["compaction"]
    assert compaction["pool_keys"] <= SNAPSHOT_ROUNDS + 1
    assert compaction["pool_keys"] < NUM_SNAPSHOT_SESSIONS


def test_restart_restores_without_resampling(sharding_reports):
    """Pools are re-resolved by fingerprint from the store's pool table."""
    compaction = sharding_reports["compaction"]
    assert all(round_.recommended for round_ in compaction["restored_rounds"])
    assert compaction["restarted_stats"].pools_sampled == 0
    assert compaction["restarted_stats"].sessions_restored == 5

"""Benchmark: event-sourced session store (append log + replay restore).

Not a paper figure — this measures the event-log tentpole along its two
acceptance axes:

* ``eventlog_replay_equivalence`` — the correctness headline.  An engine
  backed by an :class:`EventLogStore` with a 2-slot active table (every
  serve churns the LRU, so most rounds are served by sessions restored via
  log replay) is driven side-by-side with a reference engine that never
  swaps out.  After the scripted rounds the store is *crashed* — no flush,
  no close, a torn half-record appended to the active segment — reopened,
  and a fresh engine serves more rounds from recovery.  The metric is the
  fraction of presented rounds (replay-heavy phase + post-crash phase) that
  are bit-identical to the reference; the floor is 1.0, i.e. a single
  diverging package fails the gate.
* ``eventlog_swap_out_speedup`` — the cost headline.  A swap-out under the
  event log appends one small CRC-framed checkpoint event (fsync batched);
  under the SQLite blob store it serialises the full session blob into a
  row and commits.  Both paths are timed writing what the engine actually
  writes for the same session (the checkpoint vs the pool-reference blob);
  the floor is 1.0x — the log must never be slower than the blob path it
  replaces.

Crash recovery replays from the seed with no checkpoint, so the workload
runs ``maintain_on_miss=False``: every pool is a key-deterministic fill,
which keeps the replay exact whichever session builds a shared key first.
The regenerated table lands in ``results/bench_eventlog.txt``.
"""

from __future__ import annotations

import glob
import time

import pytest

from repro.core.elicitation import ElicitationConfig
from repro.experiments.harness import build_evaluator
from repro.service import (
    EngineConfig,
    EventLogStore,
    RecommendationEngine,
    SqliteSessionStore,
)

#: Acceptance floors (pinned in tools/bench_gate.py).
MIN_REPLAY_EQUIVALENCE = 1.0
MIN_SWAP_OUT_SPEEDUP = 1.0

NUM_SESSIONS = 4
NUM_ROUNDS = 4  # served against a churning 2-slot table
NUM_POST_CRASH_ROUNDS = 2  # served after torn-tail recovery
NUM_SWAP_WRITES = 400


def _engine(scale, store=None, max_active=None) -> RecommendationEngine:
    evaluator = build_evaluator("UNI", scale, num_features=4)
    elicitation = ElicitationConfig(
        k=2,
        num_random=2,
        max_package_size=3,
        num_samples=scale.num_samples,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=100,
        search_items_cap=40,
        seed=0,
    )
    overrides = {"max_active_sessions": max_active} if max_active else {}
    config = EngineConfig(
        elicitation=elicitation,
        seed=1,
        maintain_on_miss=False,  # crash recovery rebuilds pools from keys
        **overrides,
    )
    return RecommendationEngine(evaluator.catalog, evaluator.profile, config)


def _serve_and_compare(engine, reference, sids, rids, rounds):
    """Serve ``rounds`` rounds per session on both engines, counting matches."""
    matched = total = 0
    for round_index in range(rounds):
        for sid, rid in zip(sids, rids):
            served = [p.items for p in engine.recommend(sid).presented]
            expected = [p.items for p in reference.recommend(rid).presented]
            total += 1
            matched += served == expected
            click = round_index % 2
            engine.feedback(sid, click)
            reference.feedback(rid, click)
    return matched, total


@pytest.fixture(scope="module")
def eventlog_report(scale, tmp_path_factory):
    from bench_utils import record_ci_metric, write_results

    root = tmp_path_factory.mktemp("bench_eventlog")

    # -------- replay equivalence: churn-heavy serving vs a reference engine
    store = EventLogStore(str(root / "store"), fsync_every=64)
    engine = _engine(scale, max_active=2)
    engine_with_store = RecommendationEngine(
        engine.catalog, engine.profile, engine.config, store=store
    )
    reference = _engine(scale)
    sids = [engine_with_store.create_session(seed=500 + i) for i in range(NUM_SESSIONS)]
    rids = [reference.create_session(seed=500 + i) for i in range(NUM_SESSIONS)]
    matched, total = _serve_and_compare(
        engine_with_store, reference, sids, rids, NUM_ROUNDS
    )
    replayed_live = engine_with_store.sessions_replayed
    swapped_out = engine_with_store.sessions.sessions_swapped_out

    # -------- simulated crash: no flush, no close, torn record on the tail
    segment = sorted(glob.glob(str(root / "store" / "events" / "*.log")))[-1]
    with open(segment, "ab") as handle:
        handle.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefTORN-TAIL")
    recovered_store = EventLogStore(str(root / "store"), fsync_every=64)
    truncated = recovered_store.log.truncated_bytes
    recovered = RecommendationEngine(
        engine.catalog, engine.profile, engine.config, store=recovered_store
    )
    crash_matched, crash_total = _serve_and_compare(
        recovered, reference, sids, rids, NUM_POST_CRASH_ROUNDS
    )
    replayed_crash = recovered.sessions_replayed
    equivalence = (matched + crash_matched) / (total + crash_total)
    log_stats = recovered_store.describe()

    # -------- swap-out cost: checkpoint append vs SQLite full-blob save
    entry = recovered.sessions.acquire(sids[0])
    checkpoint = recovered._checkpoint_entry(entry)
    blob = recovered._snapshot_entry(entry, embed_pool=False)

    append_store = EventLogStore(str(root / "append"), fsync_every=64)
    append_store.log_session_created(
        sids[0], seed=500, created_at=entry.created_at
    )
    tick = time.perf_counter()
    for i in range(NUM_SWAP_WRITES):
        append_store.save(sids[0], dict(checkpoint, _last_access=float(i)))
    append_store.flush()
    log_seconds = time.perf_counter() - tick
    append_store.close()

    sqlite_store = SqliteSessionStore(str(root / "blobs.db"))
    tick = time.perf_counter()
    for i in range(NUM_SWAP_WRITES):
        sqlite_store.save(sids[0], dict(blob, _last_access=float(i)))
    sqlite_seconds = time.perf_counter() - tick
    sqlite_store.close()

    log_rate = NUM_SWAP_WRITES / log_seconds
    sqlite_rate = NUM_SWAP_WRITES / sqlite_seconds
    speedup = log_rate / sqlite_rate if sqlite_rate else 0.0

    header = (
        "Event-sourced session store — replay restore + append throughput\n"
        f"{NUM_SESSIONS} sessions x {NUM_ROUNDS} rounds on a 2-slot table, "
        f"then a simulated crash (torn tail truncated: {truncated} bytes) and "
        f"{NUM_POST_CRASH_ROUNDS} recovery rounds: replay equivalence "
        f"{equivalence:.3f} (floor {MIN_REPLAY_EQUIVALENCE}); swap-out "
        f"appends {speedup:.1f}x the SQLite blob rate "
        f"(floor {MIN_SWAP_OUT_SPEEDUP}x)"
    )
    body = "\n".join(
        [
            "[replay equivalence (asserted)]",
            f"  live churn: {matched}/{total} rounds bit-identical, "
            f"{replayed_live} replays, {swapped_out} swap-outs",
            f"  post-crash: {crash_matched}/{crash_total} rounds "
            f"bit-identical, {replayed_crash} replays after truncating "
            f"{truncated} torn bytes",
            f"  log: {log_stats['segments']} segment(s), "
            f"{log_stats['log_bytes']} bytes, "
            f"{log_stats['events_indexed']} events indexed",
            "",
            "[swap-out write path (asserted)]",
            f"  event log:  {log_rate:,.0f} checkpoints/s "
            f"({NUM_SWAP_WRITES} appends in {log_seconds * 1e3:.1f}ms, "
            f"fsync every 64)",
            f"  sqlite:     {sqlite_rate:,.0f} blobs/s "
            f"({NUM_SWAP_WRITES} saves in {sqlite_seconds * 1e3:.1f}ms, "
            f"WAL commit per save)",
            f"  speedup: {speedup:.2f}x",
        ]
    )
    print("\n" + header + "\n\n" + body)
    write_results("bench_eventlog.txt", header + "\n\n" + body)
    record_ci_metric(
        "eventlog_replay_equivalence",
        equivalence,
        MIN_REPLAY_EQUIVALENCE,
        source="benchmarks/test_bench_eventlog.py",
        description=(
            f"Fraction of presented rounds bit-identical to a never-swapped "
            f"reference engine, across {total} replay-heavy rounds and "
            f"{crash_total} rounds served after a simulated crash with a "
            f"torn tail record"
        ),
        unit="",
    )
    record_ci_metric(
        "eventlog_swap_out_speedup",
        speedup,
        MIN_SWAP_OUT_SPEEDUP,
        source="benchmarks/test_bench_eventlog.py",
        description=(
            "Event-log checkpoint append rate over SQLite full-blob save "
            "rate for the same session's swap-out payload"
        ),
    )
    recovered_store.close()
    store.close()
    return {
        "equivalence": equivalence,
        "speedup": speedup,
        "replayed": replayed_live + replayed_crash,
        "swapped_out": swapped_out,
        "truncated": truncated,
    }


def test_replay_serves_bit_identical_rounds(eventlog_report):
    """The acceptance headline: every round matches, including post-crash."""
    assert eventlog_report["equivalence"] >= MIN_REPLAY_EQUIVALENCE


def test_workload_actually_exercised_replay(eventlog_report):
    """The equivalence number is vacuous unless churn forced real replays."""
    assert eventlog_report["replayed"] >= NUM_SESSIONS
    assert eventlog_report["swapped_out"] > 0
    assert eventlog_report["truncated"] > 0


def test_checkpoint_appends_beat_blob_saves(eventlog_report):
    assert eventlog_report["speedup"] >= MIN_SWAP_OUT_SPEEDUP

"""Tests for the event-sourced session store (repro.service.eventlog).

Covers the log substrate (CRC framing, segment rolling, torn-tail truncation,
sealed-segment corruption, compaction), the store semantics built on it
(checkpoint events, tombstones, touch records, retention sweeps, pool-table
GC from live log references), and the tentpole invariant: a session restored
by replay serves bit-identical rounds — same pools, same top-k, same
stats-visible provenance — to one that never swapped out, including after a
simulated crash with a torn tail record.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.sampling.base import SamplePool
from repro.service import (
    EngineConfig,
    EventLog,
    EventLogCorruptionError,
    EventLogStore,
    RecommendationEngine,
    ReplayDivergenceError,
    SessionExpiredError,
    mine_click_prefixes,
)
from repro.service.eventlog import (
    EVENT_FEEDBACK,
    EVENT_RECOMMEND_SERVED,
    REPLAY_PAYLOAD_KIND,
)


class FakeClock:
    """A manually advanced monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def serving_catalog() -> ItemCatalog:
    rng = np.random.default_rng(11)
    return ItemCatalog(rng.random((30, 3)))


@pytest.fixture
def serving_profile() -> AggregateProfile:
    return AggregateProfile(["sum", "avg", "max"])


def fast_elicitation_config(**overrides) -> ElicitationConfig:
    defaults = dict(
        k=2,
        num_random=2,
        max_package_size=2,
        num_samples=40,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=60,
        search_items_cap=25,
        seed=0,
    )
    defaults.update(overrides)
    return ElicitationConfig(**defaults)


def make_engine(
    catalog, profile, clock=None, store=None, elicitation=None, **config_overrides
):
    config = EngineConfig(
        elicitation=(
            elicitation if elicitation is not None else fast_elicitation_config()
        ),
        seed=1,
        **config_overrides,
    )
    kwargs = {"store": store}
    if clock is not None:
        kwargs["clock"] = clock
    return RecommendationEngine(catalog, profile, config, **kwargs)


def presented_items(round_):
    return [p.items for p in round_.presented]


def log_store(tmp_path, **kwargs) -> EventLogStore:
    return EventLogStore(str(tmp_path / "eventlog"), **kwargs)


# ================================================================== EventLog
class TestEventLogFraming:
    def test_append_replay_round_trip(self, tmp_path):
        log = EventLog(str(tmp_path / "log"))
        events = [{"type": "t", "n": i, "payload": "x" * i} for i in range(20)]
        positions = [log.append(event) for event in events]
        assert [e for e, _ in log.replay()] == events
        assert [p for _, p in log.replay()] == positions
        # Offsets are strictly increasing within a segment.
        offsets = [p.offset for p in positions]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)
        log.close()

    def test_reopen_replays_everything(self, tmp_path):
        log = EventLog(str(tmp_path / "log"))
        for i in range(5):
            log.append({"n": i})
        log.close()
        reopened = EventLog(str(tmp_path / "log"))
        assert [e["n"] for e, _ in reopened.replay()] == list(range(5))
        assert reopened.truncated_bytes == 0
        reopened.close()

    def test_unflushed_appends_survive_reopen(self, tmp_path):
        # buffering=0 writes reach the OS immediately: a process crash
        # between fsync batches loses nothing that append() accepted.
        log = EventLog(str(tmp_path / "log"), fsync_every=1000)
        for i in range(7):
            log.append({"n": i})
        # no close(), no flush(): simulate the process dying here
        reopened = EventLog(str(tmp_path / "log"))
        assert [e["n"] for e, _ in reopened.replay()] == list(range(7))
        reopened.close()

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x03",  # torn frame header
            b"\xff\x00\x00\x00\x12\x34\x56\x78",  # header promising absent payload
            b"\x02\x00\x00\x00\xde\xad\xbe\xefxy",  # payload failing its CRC
        ],
        ids=["torn-header", "missing-payload", "bad-crc"],
    )
    def test_torn_tail_truncated_on_open(self, tmp_path, tail):
        log = EventLog(str(tmp_path / "log"))
        for i in range(4):
            log.append({"n": i})
        log.close()
        (segment,) = glob.glob(str(tmp_path / "log" / "*.log"))
        intact_size = os.path.getsize(segment)
        with open(segment, "ab") as handle:
            handle.write(tail)
        reopened = EventLog(str(tmp_path / "log"))
        assert reopened.truncated_bytes == len(tail)
        assert os.path.getsize(segment) == intact_size
        assert [e["n"] for e, _ in reopened.replay()] == list(range(4))
        # The repaired log keeps appending from the truncation point.
        reopened.append({"n": 4})
        assert [e["n"] for e, _ in reopened.replay()] == list(range(5))
        reopened.close()

    def test_segments_roll_and_replay_in_order(self, tmp_path):
        log = EventLog(str(tmp_path / "log"), segment_max_bytes=200)
        for i in range(30):
            log.append({"n": i, "pad": "p" * 20})
        assert log.segment_count > 1
        assert [e["n"] for e, _ in log.replay()] == list(range(30))
        log.close()
        reopened = EventLog(str(tmp_path / "log"), segment_max_bytes=200)
        assert [e["n"] for e, _ in reopened.replay()] == list(range(30))
        reopened.close()

    def test_sealed_segment_corruption_raises(self, tmp_path):
        log = EventLog(str(tmp_path / "store" / "events"), segment_max_bytes=200)
        for i in range(30):
            log.append({"n": i, "pad": "p" * 20})
        log.close()
        segments = sorted(glob.glob(str(tmp_path / "store" / "events" / "*.log")))
        assert len(segments) > 2
        # Flip a payload byte in the middle of the first (sealed) segment.
        with open(segments[0], "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # Construction repairs only the final segment; sealed-segment damage
        # is not silently truncatable and surfaces as soon as the log is
        # replayed — which EventLogStore does at open, so a store pointed at
        # the damaged directory fails immediately rather than serving a hole.
        reopened = EventLog(str(tmp_path / "store" / "events"), segment_max_bytes=200)
        with pytest.raises(EventLogCorruptionError):
            list(reopened.replay())
        reopened.close()
        with pytest.raises(EventLogCorruptionError):
            EventLogStore(str(tmp_path / "store"), segment_max_bytes=200)

    def test_compaction_rewrites_deletes_and_keeps(self, tmp_path):
        log = EventLog(str(tmp_path / "log"), segment_max_bytes=150)
        for i in range(24):
            log.append({"n": i, "sid": "a" if i % 2 else "b", "pad": "p" * 20})
        before = log.total_bytes()
        stats = log.compact(lambda e: e["sid"] == "a")
        assert stats.events_dropped == 12
        assert stats.segments_rewritten + stats.segments_deleted > 0
        assert stats.bytes_reclaimed > 0
        assert log.total_bytes() < before
        survivors = [e["n"] for e, _ in log.replay()]
        assert survivors == [i for i in range(24) if i % 2]
        # Appends continue normally after compaction.
        log.append({"n": 99, "sid": "a"})
        assert [e["n"] for e, _ in log.replay()][-1] == 99
        log.close()

    def test_compaction_keep_everything_is_a_noop(self, tmp_path):
        log = EventLog(str(tmp_path / "log"), segment_max_bytes=150)
        for i in range(10):
            log.append({"n": i, "pad": "p" * 20})
        stats = log.compact(lambda e: True)
        assert stats.events_dropped == 0
        assert stats.segments_rewritten == 0
        assert stats.segments_deleted == 0
        assert [e["n"] for e, _ in log.replay()] == list(range(10))
        log.close()


# ============================================================= EventLogStore
class TestEventLogStore:
    def test_save_load_delete_list(self, tmp_path):
        store = log_store(tmp_path)
        store.log_session_created("s1", seed=7, created_at=1.0)
        store.save("s1", {"kind": "eventlog-checkpoint", "seed": 7, "pool": None,
                          "_last_access": 3.5})
        payload = store.load("s1")
        assert payload["kind"] == REPLAY_PAYLOAD_KIND
        assert payload["seed"] == 7
        assert payload["_last_access"] == 3.5
        assert "_last_access" not in payload["checkpoint"]
        assert store.list_ids() == ["s1"]
        assert store.delete("s1") is True
        assert store.load("s1") is None
        assert store.list_ids() == []
        assert store.delete("s1") is False  # tombstoned, not an error
        store.close()

    def test_load_unknown_is_none(self, tmp_path):
        store = log_store(tmp_path)
        assert store.load("nope") is None
        store.close()

    def test_events_carry_monotonic_per_session_seq(self, tmp_path):
        store = log_store(tmp_path)
        store.log_session_created("a", seed=1, created_at=0.0)
        store.log_round_served("a", recommended=[[1, 2]], random_packages=[[3]])
        store.log_session_created("b", seed=2, created_at=0.0)
        store.log_feedback("a", clicked=[1, 2])
        store.log_round_served("b", recommended=[[4]], random_packages=[])
        seqs = {}
        for event, _ in store.log.replay():
            seqs.setdefault(event["session_id"], []).append(event["seq"])
        assert seqs == {"a": [1, 2, 3], "b": [1, 2]}
        store.close()

    def test_index_rebuilds_after_reopen(self, tmp_path):
        store = log_store(tmp_path)
        store.log_session_created("s1", seed=7, created_at=1.0)
        store.log_round_served("s1", recommended=[[0, 1]], random_packages=[[2]])
        store.log_feedback("s1", clicked=[0, 1])
        store.log_session_created("s2", seed=8, created_at=2.0)
        store.delete("s2")
        store.close()
        reopened = log_store(tmp_path)
        assert reopened.list_ids() == ["s1"]
        payload = reopened.load("s1")
        assert [e["type"] for e in payload["events"]] == [
            EVENT_RECOMMEND_SERVED,
            EVENT_FEEDBACK,
        ]
        assert reopened.load("s2") is None
        reopened.close()

    def test_touch_updates_last_access(self, tmp_path):
        store = log_store(tmp_path)
        store.log_session_created("s1", seed=7, created_at=1.0)
        store.save("s1", {"kind": "eventlog-checkpoint", "_last_access": 1.0})
        store.log_touch("s1", last_access=9.0)
        assert store.load("s1")["_last_access"] == 9.0
        store.close()

    def test_full_blob_round_trips_as_base(self, tmp_path):
        # A snapshot blob (public restore import) saved through the store
        # comes back as the replay payload's base with only the logged
        # suffix to replay on top.
        store = log_store(tmp_path)
        blob = {"version": 2, "session_id": "ext", "seed": 3, "created_at": 0.5,
                "rng_state": {"state": 123}, "pool": None, "preferences": []}
        store.save("ext", dict(blob, _last_access=2.0))
        store.log_round_served("ext", recommended=[[5]], random_packages=[])
        payload = store.load("ext")
        assert payload["base"]["rng_state"] == {"state": 123}
        assert payload["checkpoint"] is None
        assert [e["type"] for e in payload["events"]] == [EVENT_RECOMMEND_SERVED]
        store.close()

    def test_load_is_idempotent_and_isolated(self, tmp_path):
        store = log_store(tmp_path)
        store.log_session_created("s1", seed=7, created_at=1.0)
        store.log_round_served("s1", recommended=[[0]], random_packages=[[1]])
        first = store.load("s1")
        first["events"].clear()  # mutate the returned copy
        second = store.load("s1")
        assert len(second["events"]) == 1  # the index was not harmed
        assert store.load("s1") == second
        store.close()

    def test_mutating_a_loaded_payload_leaves_the_next_load_unchanged(
        self, tmp_path
    ):
        # Every container of a loaded payload is the caller's own: writes at
        # any depth, into events, the checkpoint or a blob base, never reach
        # the store's index.
        store = log_store(tmp_path)
        store.log_session_created("s1", seed=7, created_at=1.0)
        store.log_round_served("s1", recommended=[[0, 2]], random_packages=[[1]])
        store.save("s1", {"kind": "eventlog-checkpoint", "seed": 7,
                          "pool": {"key": "k", "digest": "d", "pending": True}})
        store.log_feedback("s1", clicked=[0, 2])
        blob = {"version": 2, "session_id": "ext", "seed": 3, "created_at": 0.5,
                "rng_state": {"state": {"state": 123, "inc": 5}}, "pool": None,
                "preferences": [{"preferred": [1], "other": [2]}]}
        store.save("ext", blob)
        expected = {sid: store.load(sid) for sid in ("s1", "ext")}
        first = store.load("s1")
        first["events"][0]["recommended"][0].append(99)
        first["events"][0]["random"].clear()
        first["events"][1]["clicked"] = []
        first["checkpoint"]["pool"]["digest"] = "tampered"
        first["log_position"][1] = -1
        imported = store.load("ext")
        imported["base"]["rng_state"]["state"]["state"] = 0
        imported["base"]["preferences"][0]["preferred"].append(7)
        assert store.load("s1") == expected["s1"]
        assert store.load("ext") == expected["ext"]
        assert expected["s1"]["events"][0]["recommended"] == [[0, 2]]
        store.close()

    def test_pool_table_and_gc_from_live_refs(self, tmp_path):
        store = log_store(tmp_path)
        store.save_pool("k1#d1", {"samples": [[0.1]], "weights": [1.0]})
        store.save_pool("k2#d2", {"samples": [[0.2]], "weights": [1.0]})
        assert store.has_pool("k1#d1") and store.list_pool_keys() == [
            "k1#d1",
            "k2#d2",
        ]
        store.log_session_created("s1", seed=7, created_at=0.0)
        store.save(
            "s1",
            {"kind": "eventlog-checkpoint", "pool": {"key": "k1", "digest": "d1"}},
        )
        # The default mark set is derived from the log index: s1's checkpoint
        # keeps k1#d1 alive, the unreferenced k2#d2 is swept.
        assert store.gc_pools() == 1
        assert store.list_pool_keys() == ["k1#d1"]
        store.close()

    def test_compact_drops_closed_sessions_and_collects_pools(self, tmp_path):
        clock = FakeClock()
        store = log_store(tmp_path, clock=clock, segment_max_bytes=200)
        for sid, seed in (("dead", 1), ("live", 2)):
            store.log_session_created(sid, seed=seed, created_at=clock.now)
            for i in range(6):
                store.log_round_served(
                    sid, recommended=[[i, i + 1]], random_packages=[[i + 2]]
                )
        store.save(
            "dead",
            {"kind": "eventlog-checkpoint", "pool": {"key": "kd", "digest": "x"}},
        )
        store.save_pool("kd#x", {"samples": [[0.1]], "weights": [1.0]})
        store.delete("dead")
        clock.advance(100.0)
        report = store.compact(retention_seconds=50.0)
        assert report.sessions_dropped == 1
        assert report.events_dropped > 0
        assert report.bytes_reclaimed > 0
        assert report.pools_collected == 1  # the closed session's pool
        assert store.load("dead") is None
        assert store.list_ids() == ["live"]
        # The survivor's history is intact, on disk and in the index.
        assert len(store.load("live")["events"]) == 6
        store.close()
        reopened = log_store(tmp_path, clock=clock)
        assert reopened.list_ids() == ["live"]
        assert len(reopened.load("live")["events"]) == 6
        reopened.close()

    def test_compact_retention_horizon_spares_recent_closures(self, tmp_path):
        clock = FakeClock()
        store = log_store(tmp_path, clock=clock)
        store.log_session_created("s1", seed=1, created_at=clock.now)
        store.delete("s1")
        clock.advance(5.0)
        report = store.compact(retention_seconds=50.0)
        assert report.sessions_dropped == 0
        clock.advance(100.0)
        assert store.compact(retention_seconds=50.0).sessions_dropped == 1
        store.close()

    def test_compact_ttl_drops_idle_open_sessions(self, tmp_path):
        clock = FakeClock()
        store = log_store(tmp_path, clock=clock)
        store.log_session_created("idle", seed=1, created_at=clock.now)
        clock.advance(100.0)
        store.log_session_created("busy", seed=2, created_at=clock.now)
        report = store.compact(ttl_seconds=50.0)
        assert report.sessions_dropped == 1
        assert store.load("idle") is None
        assert store.load("busy") is not None
        store.close()

    def test_requires_pool_sharing(self, serving_catalog, serving_profile, tmp_path):
        store = log_store(tmp_path)
        with pytest.raises(ValueError, match="pool sharing"):
            make_engine(
                serving_catalog,
                serving_profile,
                store=store,
                pool_cache_size=0,
                topk_cache_size=0,
                use_batch_sampler=False,
            )
        store.close()


# ===================================================== replay restore (engine)
def run_workload(engine, session_ids, rounds=3, click=0):
    """Serve ``rounds`` rounds + clicks per session, interleaved."""
    transcripts = {sid: [] for sid in session_ids}
    for _ in range(rounds):
        for sid in session_ids:
            transcripts[sid].append(presented_items(engine.recommend(sid)))
            engine.feedback(sid, click)
    return transcripts


class TestReplayRestore:
    def test_served_pools_are_read_only_and_hashed_once(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # The engine freezes every pool it stamps, so a checkpoint's content
        # digest is computed once per pool, not once per swap-out.
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        first, second = engine.create_session(seed=1), engine.create_session(seed=1)
        engine.recommend(first)
        pool = engine.sessions.peek(first).recommender.pending_pool
        assert not pool.samples.flags.writeable and not pool.weights.flags.writeable
        with pytest.raises(ValueError):
            pool.weights[0] = 0.0
        engine.recommend(second)  # swaps ``first`` out: its checkpoint hashes
        memo = pool._digest_memo
        assert memo[2] == SamplePool(pool.samples.copy(), pool.weights.copy()).content_digest()
        engine.recommend(first)  # swaps ``second`` out over the same pool
        assert pool._digest_memo is memo
        store.close()

    def test_swap_out_replay_serves_bit_identical_rounds(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # max_active=2 with 4 sessions: every serve churns the LRU table, so
        # most rounds are served by sessions restored via replay.  The
        # reference engine (no store, ample capacity) never swaps out.
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        reference = make_engine(serving_catalog, serving_profile)
        sids = [engine.create_session(seed=100 + i) for i in range(4)]
        rids = [reference.create_session(seed=100 + i) for i in range(4)]
        for _ in range(3):
            for sid, rid in zip(sids, rids):
                assert presented_items(engine.recommend(sid)) == presented_items(
                    reference.recommend(rid)
                )
                engine.feedback(sid, 0)
                reference.feedback(rid, 0)
        for sid, rid in zip(sids, rids):
            assert presented_items(engine.recommend(sid)) == presented_items(
                reference.recommend(rid)
            )
        assert engine.sessions_replayed > 0
        assert engine.sessions.sessions_swapped_out > 0
        store.close()

    def test_restart_replay_matches_reference(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        reference = make_engine(serving_catalog, serving_profile)
        sids = [engine.create_session(seed=100 + i) for i in range(3)]
        rids = [reference.create_session(seed=100 + i) for i in range(3)]
        run_workload(engine, sids)
        run_workload(reference, rids)
        store.close()  # clean shutdown

        restarted_store = log_store(tmp_path)
        restarted = make_engine(
            serving_catalog,
            serving_profile,
            store=restarted_store,
            max_active_sessions=2,
        )
        for sid, rid in zip(sids, rids):
            assert presented_items(restarted.recommend(sid)) == presented_items(
                reference.recommend(rid)
            )
        assert restarted.sessions_replayed == 3
        # Stats-visible provenance: replayed sessions report their pool key.
        stats = restarted.stats()
        assert stats.sessions_replayed == 3
        assert stats.eventlog["sessions_live"] == 3
        restarted_store.close()

    def test_swap_out_after_the_last_click_builds_no_pool(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # A session evicted right after a click has its next pool pending:
        # the checkpoint references the stale pool instead of building the
        # next one inside the evicting request.
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        reference = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=100)
        rid = reference.create_session(seed=100)
        run_workload(engine, [sid], rounds=2)
        run_workload(reference, [rid], rounds=2)
        built = engine.stats().pools_built
        engine.create_session(seed=101)  # evicts sid
        assert engine.sessions.sessions_swapped_out == 1
        assert engine.stats().pools_built == built
        checkpoint = store._records[sid].checkpoint
        assert checkpoint["pool"]["pending"] is True
        # Restore re-parks the stale pool: the next round builds the pool
        # the never-evicted session builds.
        assert presented_items(engine.recommend(sid)) == presented_items(
            reference.recommend(rid)
        )
        assert np.array_equal(
            engine.sessions.peek(sid).recommender.pending_pool.samples,
            reference.sessions.peek(rid).recommender.pending_pool.samples,
        )
        store.close()

    def test_restart_replays_rounds_logged_after_a_pending_checkpoint(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # Two rounds and clicks are logged after the session's pending
        # checkpoint (and a never-served session checkpoints no pool).
        # Replay must provision each of those rounds as serving did, so the
        # last click parks the same stale pool the live session parked.
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        reference = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=100)
        rid = reference.create_session(seed=100)
        run_workload(engine, [sid], rounds=1)
        run_workload(reference, [rid], rounds=1)
        other = engine.create_session(seed=101)  # evicts sid: pending checkpoint
        run_workload(engine, [sid], rounds=2)  # restores sid, evicts other
        run_workload(reference, [rid], rounds=2)
        assert store._records[other].checkpoint["pool"] is None
        store.close()

        restarted_store = log_store(tmp_path)
        restarted = make_engine(
            serving_catalog,
            serving_profile,
            store=restarted_store,
            max_active_sessions=1,
        )
        assert presented_items(restarted.recommend(sid)) == presented_items(
            reference.recommend(rid)
        )
        assert np.array_equal(
            restarted.sessions.peek(sid).recommender.pending_pool.samples,
            reference.sessions.peek(rid).recommender.pending_pool.samples,
        )
        restarted_store.close()

    def test_restart_without_a_checkpoint_replays_maintained_pools(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # A session never swapped out has no checkpoint: replay from its
        # seed provisions every logged round as serving did, so §3.4
        # maintenance rebuilds the same pools and the restarted session
        # serves the round the live one would have.
        store = log_store(tmp_path)
        engine = make_engine(serving_catalog, serving_profile, store=store)
        reference = make_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=200)
        rid = reference.create_session(seed=200)
        run_workload(engine, [sid], rounds=3, click=1)
        run_workload(reference, [rid], rounds=3, click=1)
        store.close()

        restarted_store = log_store(tmp_path)
        restarted = make_engine(
            serving_catalog, serving_profile, store=restarted_store
        )
        assert presented_items(restarted.recommend(sid)) == presented_items(
            reference.recommend(rid)
        )
        assert restarted.stats().pools_maintained > 0
        assert np.array_equal(
            restarted.sessions.peek(sid).recommender.pending_pool.samples,
            reference.sessions.peek(rid).recommender.pending_pool.samples,
        )
        restarted_store.close()

    def test_crash_recovery_with_torn_tail(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # Crash recovery replays from the seed with NO checkpoint.  With
        # maintain_on_miss=False every pool is a fresh key-deterministic
        # fill, so this pins the torn-tail path independently of §3.4
        # maintenance (which the restart test above covers).
        store = log_store(tmp_path, fsync_every=1000)
        engine = make_engine(
            serving_catalog,
            serving_profile,
            store=store,
            maintain_on_miss=False,
        )
        reference = make_engine(
            serving_catalog, serving_profile, maintain_on_miss=False
        )
        sids = [engine.create_session(seed=200 + i) for i in range(3)]
        rids = [reference.create_session(seed=200 + i) for i in range(3)]
        run_workload(engine, sids, rounds=2, click=1)
        run_workload(reference, rids, rounds=2, click=1)
        # Kill mid-append: no close/flush, and a torn half-record on disk.
        segment = sorted(glob.glob(str(tmp_path / "eventlog" / "events" / "*.log")))[
            -1
        ]
        intact_size = os.path.getsize(segment)
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefTORN")
        recovered_store = log_store(tmp_path)
        assert recovered_store.log.truncated_bytes > 0
        assert os.path.getsize(segment) == intact_size
        recovered = make_engine(
            serving_catalog,
            serving_profile,
            store=recovered_store,
            maintain_on_miss=False,
        )
        for sid, rid in zip(sids, rids):
            assert presented_items(recovered.recommend(sid)) == presented_items(
                reference.recommend(rid)
            )
        assert recovered.sessions_replayed == 3
        recovered_store.close()

    def test_replay_is_idempotent(self, serving_catalog, serving_profile, tmp_path):
        # Property: replaying the same log prefix N times yields the same
        # session state — two independent engines over one log serve the
        # identical next round, and a third replay still matches.
        store = log_store(tmp_path)
        engine = make_engine(serving_catalog, serving_profile, store=store)
        sid = engine.create_session(seed=42)
        run_workload(engine, [sid], rounds=2)
        store.close()
        nexts = []
        for i in range(3):
            # Each replica replays a private copy of the log: serving the
            # next round appends to the replica's copy, leaving the shared
            # prefix under test untouched.
            replica_dir = tmp_path / f"replica{i}"
            shutil.copytree(tmp_path / "eventlog", replica_dir)
            replica_store = EventLogStore(str(replica_dir))
            replica = make_engine(
                serving_catalog, serving_profile, store=replica_store
            )
            nexts.append(presented_items(replica.recommend(sid)))
            replica_store.close()
        assert nexts[0] == nexts[1] == nexts[2]

    def test_tampered_log_raises_divergence(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = log_store(tmp_path)
        engine = make_engine(serving_catalog, serving_profile, store=store)
        sid = engine.create_session(seed=42)
        round_ = engine.recommend(sid)
        engine.feedback(sid, 0)
        store.close()
        # Rewrite the logged click to a package that was never presented.
        reopened = log_store(tmp_path)
        bogus = [max(max(p.items) for p in round_.presented) + 1]
        for record in reopened._records.values():
            for event in record.events:
                if event["type"] == EVENT_FEEDBACK:
                    event["clicked"] = bogus
        restarted = make_engine(serving_catalog, serving_profile, store=reopened)
        with pytest.raises(ReplayDivergenceError):
            restarted.recommend(sid)
        reopened.close()

    def test_closed_sessions_do_not_restore(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        sid = engine.create_session(seed=1)
        engine.recommend(sid)
        assert engine.close(sid) is True
        store.close()
        reopened = log_store(tmp_path)
        restarted = make_engine(serving_catalog, serving_profile, store=reopened)
        with pytest.raises(KeyError):
            restarted.recommend(sid)
        reopened.close()

    def test_blob_import_keeps_serving_through_the_log(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # A session imported via the public restore() has pre-log history:
        # it must keep full-blob checkpoints (replayable=False) yet still
        # round-trip through swap-out/restore in an event-log engine.
        donor = make_engine(serving_catalog, serving_profile)
        donor_ref = make_engine(serving_catalog, serving_profile)
        sid = donor.create_session(seed=5)
        rid = donor_ref.create_session(seed=5)
        donor.recommend(sid)
        donor_ref.recommend(rid)
        donor.feedback(sid, 0)
        donor_ref.feedback(rid, 0)
        blob = donor.snapshot(sid)

        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=1
        )
        engine.restore(blob)
        # Force a swap-out of the imported session, then keep serving.
        other = engine.create_session(seed=6)
        engine.recommend(other)
        assert presented_items(engine.recommend(sid)) == presented_items(
            donor_ref.recommend(rid)
        )
        engine.feedback(sid, 1)
        donor_ref.feedback(rid, 1)
        # Churn it out and back again: blob base + logged suffix replay.
        engine.recommend(other)
        assert presented_items(engine.recommend(sid)) == presented_items(
            donor_ref.recommend(rid)
        )
        store.close()


# ============================================================== TTL regression
class TestTouchRecordTtl:
    def test_clean_touched_session_survives_ttl_after_restart(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # The PR 4 caveat: a clean swap-out skips the snapshot write, so the
        # store kept the *older* _last_access and expiry could fire early.
        # The touch record closes the gap — a session whose last activity
        # was recent survives a restart followed by a TTL check, even though
        # its last full checkpoint is older than the TTL.
        clock = FakeClock()
        store = log_store(tmp_path)
        engine = make_engine(
            serving_catalog,
            serving_profile,
            clock=clock,
            store=store,
            max_active_sessions=1,
            session_ttl_seconds=10.0,
        )
        s1 = engine.create_session(seed=1)
        engine.recommend(s1)
        s2 = engine.create_session(seed=2)  # evicts s1 dirty: checkpoint at t=0
        clock.advance(6.0)
        engine.snapshot(s1)  # restores s1 clean (no round served), access=6
        engine.recommend(s2)  # evicts s1 clean: touch record, no snapshot
        assert engine.sessions.swap_writes_skipped >= 1
        store.close()

        restarted_store = log_store(tmp_path)
        restarted = make_engine(
            serving_catalog,
            serving_profile,
            clock=clock,
            store=restarted_store,
            max_active_sessions=1,
            session_ttl_seconds=10.0,
        )
        clock.advance(6.0)  # t=12: 6s since touch, 12s since checkpoint
        # Without the touch record the stored _last_access would be 0 and
        # this acquire would raise SessionExpiredError.
        restarted.recommend(s1)
        clock.advance(11.0)  # now genuinely idle past the TTL
        with pytest.raises(SessionExpiredError):
            restarted.recommend(s2)
        restarted_store.close()


# ============================================================== prefix mining
class TestPrefixMiningWarmStart:
    def workload_store(self, catalog, profile, tmp_path):
        # Three sessions sharing one seed walk identical presentation
        # streams, so identical click positions produce identical constraint
        # prefixes.  All three click package 0 in round one (a shared
        # depth-1 prefix); two of them click 0 again in round two while the
        # third defects to package 1 — a popular depth-2 prefix (2 sessions)
        # and a rare one (1 session).
        store = log_store(tmp_path)
        engine = make_engine(catalog, profile, store=store)
        for second_click in (0, 0, 1):
            sid = engine.create_session(seed=300)
            engine.recommend(sid)
            engine.feedback(sid, 0)
            engine.recommend(sid)
            engine.feedback(sid, second_click)
        return store, engine

    def test_mined_prefixes_are_frequency_ranked(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store, engine = self.workload_store(
            serving_catalog, serving_profile, tmp_path
        )
        mined = mine_click_prefixes(store, engine.evaluator)
        assert mined, "identical click paths must surface shared prefixes"
        # The shared round-one click tops the ranking; the defector split
        # the depth-2 prefix 2-vs-1.
        assert mined[0].sessions == 3
        assert mined[0].depth == 1
        assert [s.sessions for s in mined] == sorted(
            (s.sessions for s in mined), reverse=True
        )
        by_depth = {}
        for stat in mined:
            by_depth.setdefault(stat.depth, []).append(stat.sessions)
        assert 2 in by_depth, "depth-2 prefixes are what the log observes"
        assert sorted(by_depth[2], reverse=True)[0] == 2
        store.close()

    def test_max_depth_caps_mining(self, serving_catalog, serving_profile, tmp_path):
        store, engine = self.workload_store(
            serving_catalog, serving_profile, tmp_path
        )
        shallow = mine_click_prefixes(store, engine.evaluator, max_depth=1)
        assert {s.depth for s in shallow} == {1}
        store.close()

    def test_warm_start_from_log_pins_observed_pools(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store, engine = self.workload_store(
            serving_catalog, serving_profile, tmp_path
        )
        # Warm a COLD engine from the workload's log: the mined prefixes
        # must pre-fill the pools a session walking the popular path needs.
        cold = make_engine(serving_catalog, serving_profile)
        report = cold.warm_start_from_log(store, top_n=2)
        assert report.pools_filled > 0
        assert report.prefixes_mined >= len(report.warmed_keys)
        assert set(report.warmed_keys) <= set(cold.pool_repository.pinned_keys())
        fills_after_warm = cold.pool_repository.fills
        sid = cold.create_session(seed=300)
        cold.recommend(sid)  # root pool: not mined (fills at most once)
        cold.feedback(sid, 0)
        cold.recommend(sid)  # depth-1 pool: warmed from the log, no fill
        assert cold.pool_repository.fills - fills_after_warm <= 1
        store.close()

    def test_warm_from_log_requires_pool_cache(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store, engine = self.workload_store(
            serving_catalog, serving_profile, tmp_path
        )
        no_cache = make_engine(
            serving_catalog, serving_profile, pool_cache_size=0
        )
        with pytest.raises(ValueError, match="pool cache"):
            no_cache.warm_start_from_log(store)
        store.close()

    def test_warm_start_from_log_without_store_raises(
        self, serving_catalog, serving_profile
    ):
        engine = make_engine(serving_catalog, serving_profile)
        with pytest.raises(ValueError, match="EventLogStore"):
            engine.warm_start_from_log()


# ===================================== partial-refill replay (incremental PR)
def refill_engine(catalog, profile, store=None, **overrides):
    """An engine with ESS-deficit partial refill on (refill needs a ψ)."""
    return make_engine(
        catalog,
        profile,
        store=store,
        elicitation=fast_elicitation_config(noise_psi=0.9),
        partial_refill=True,
        **overrides,
    )


class TestPartialRefillReplay:
    """Replay interaction of the ESS-deficit partial-refill fast path.

    A partial-refill pool's content depends on session history (the
    reweighted survivors of the previous build), so it can never be
    re-derived from its fingerprint key alone.  Checkpoints therefore carry
    a deficit-fill audit record; replay must restore the exact build through
    the content-addressed pool table and treat an unresolvable or
    inconsistent record as divergence, not as a cache miss.
    """

    def checkpointed_workload(self, catalog, profile, tmp_path, rounds=2):
        """A refill workload where every swap-out checkpoints a refill pool.

        max_active=1 with two interleaved sessions: each acquire evicts the
        other session right after its click, so the checkpoint materialises
        the post-click pool — built by partial refill from the stale build.
        """
        store = log_store(tmp_path)
        engine = refill_engine(
            catalog, profile, store=store, max_active_sessions=1
        )
        sids = [engine.create_session(seed=300 + i) for i in range(2)]
        run_workload(engine, sids, rounds=rounds)
        assert engine.pools_partial_refilled > 0
        store.close()
        return sids

    def tampered_records(self, reopened, mutate):
        """Apply ``mutate`` to every refill-bearing checkpoint; return sids."""
        tampered = []
        for sid, record in reopened._records.items():
            checkpoint = record.checkpoint
            if checkpoint is None:
                continue
            refill = (checkpoint.get("pool") or {}).get("refill")
            if refill is not None:
                mutate(checkpoint["pool"])
                tampered.append(sid)
        return tampered

    def test_swap_out_replay_serves_bit_identical_refill_rounds(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # Mirror of the plain swap-out replay test with partial refill on:
        # restored-via-replay sessions must serve the same rounds as a
        # never-swapped reference, including rounds whose pools were built
        # by deficit fill rather than a full resample.
        store = log_store(tmp_path)
        engine = refill_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        reference = refill_engine(serving_catalog, serving_profile)
        sids = [engine.create_session(seed=300 + i) for i in range(4)]
        rids = [reference.create_session(seed=300 + i) for i in range(4)]
        for _ in range(3):
            for sid, rid in zip(sids, rids):
                assert presented_items(engine.recommend(sid)) == presented_items(
                    reference.recommend(rid)
                )
                engine.feedback(sid, 0)
                reference.feedback(rid, 0)
        for sid, rid in zip(sids, rids):
            assert presented_items(engine.recommend(sid)) == presented_items(
                reference.recommend(rid)
            )
        assert engine.pools_partial_refilled > 0
        assert engine.sessions_replayed > 0
        assert engine.sessions.sessions_swapped_out > 0
        store.close()

    def test_restart_replay_of_refill_sessions_matches_reference(
        self, serving_catalog, serving_profile, tmp_path
    ):
        store = log_store(tmp_path)
        engine = refill_engine(
            serving_catalog, serving_profile, store=store, max_active_sessions=2
        )
        reference = refill_engine(serving_catalog, serving_profile)
        sids = [engine.create_session(seed=300 + i) for i in range(3)]
        rids = [reference.create_session(seed=300 + i) for i in range(3)]
        run_workload(engine, sids)
        run_workload(reference, rids)
        assert engine.pools_partial_refilled > 0
        store.close()  # clean shutdown

        restarted_store = log_store(tmp_path)
        restarted = refill_engine(
            serving_catalog,
            serving_profile,
            store=restarted_store,
            max_active_sessions=2,
        )
        for sid, rid in zip(sids, rids):
            assert presented_items(restarted.recommend(sid)) == presented_items(
                reference.recommend(rid)
            )
        assert restarted.sessions_replayed == 3
        restarted_store.close()

    def test_checkpoints_carry_the_deficit_fill_audit_record(
        self, serving_catalog, serving_profile, tmp_path
    ):
        self.checkpointed_workload(serving_catalog, serving_profile, tmp_path)
        reopened = log_store(tmp_path)
        audits = [
            (record.checkpoint.get("pool") or {}).get("refill")
            for record in reopened._records.values()
            if record.checkpoint is not None
        ]
        audits = [a for a in audits if a is not None]
        assert audits, "no checkpoint carried a deficit-fill audit record"
        for audit in audits:
            assert audit["survivors"] > 0
            assert audit["deficit"] >= 0
            assert audit["size"] > 0
        reopened.close()

    def test_untampered_reopen_restores_refill_sessions(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # Control for the tamper tests: the identical reopen path without
        # any mutation restores every refill session cleanly.
        sids = self.checkpointed_workload(
            serving_catalog, serving_profile, tmp_path
        )
        reopened = log_store(tmp_path)
        restarted = refill_engine(
            serving_catalog, serving_profile, store=reopened
        )
        for sid in sids:
            assert presented_items(restarted.recommend(sid))
        assert restarted.sessions_replayed == len(sids)
        reopened.close()

    def test_tampered_refill_size_raises_divergence(
        self, serving_catalog, serving_profile, tmp_path
    ):
        self.checkpointed_workload(serving_catalog, serving_profile, tmp_path)
        reopened = log_store(tmp_path)

        def grow_size(pool_payload):
            pool_payload["refill"]["size"] += 1

        tampered = self.tampered_records(reopened, grow_size)
        assert tampered
        restarted = refill_engine(
            serving_catalog, serving_profile, store=reopened
        )
        with pytest.raises(ReplayDivergenceError, match="deficit-fill"):
            restarted.recommend(tampered[0])
        reopened.close()

    def test_tampered_refill_digest_raises_divergence(
        self, serving_catalog, serving_profile, tmp_path
    ):
        # A bogus digest makes the checkpointed build unresolvable from the
        # content-addressed pool table.  For an ordinary pool that is a
        # silent lazy re-fill; for a refill pool it must be divergence.
        self.checkpointed_workload(serving_catalog, serving_profile, tmp_path)
        reopened = log_store(tmp_path)

        def scramble_digest(pool_payload):
            pool_payload["digest"] = "0" * len(pool_payload["digest"])

        tampered = self.tampered_records(reopened, scramble_digest)
        assert tampered
        restarted = refill_engine(
            serving_catalog, serving_profile, store=reopened
        )
        with pytest.raises(ReplayDivergenceError, match="cannot be resolved"):
            restarted.recommend(tampered[0])
        reopened.close()

"""Append-only event log: the session store whose source of truth is the log.

Everything downstream of a click is deterministic — key-deterministic pool
fills, canonical constraint derivation, exact batch search — so the only
state worth persisting is the *input* stream: which packages were served and
which one the user clicked.  Following the LogBase design ("the log is both
the write-ahead log and the storage"), this module re-founds session
durability on an append-only event log:

* :class:`EventLog` — CRC-framed, fsync-batched, segmented append-only log
  with torn-tail truncation on open.  A crash mid-append loses at most the
  torn final record; every intact prefix replays.
* :class:`EventLogStore` — a :class:`~repro.service.store.SessionStore`
  whose :meth:`~EventLogStore.save` appends a checkpoint event instead of
  re-serialising a blob, and whose :meth:`~EventLogStore.load` returns a
  *replay payload*: ``(seed, events, checkpoint pool reference)``.  The
  engine restores by replaying the feedback suffix through the same
  deterministic elicitation path a live session took.
* :func:`mine_click_prefixes` — frequency-ranks the constraint-set prefixes
  actually observed in the log, the substrate for warm-starting depth-2+
  pools (enumeration combinatorics do not apply to *observed* prefixes).

Events carry monotonic per-session sequence numbers (``seq``) and a store
clock timestamp (``ts``); a session snapshot degenerates to ``(log offset,
pool reference)``.  Retention is a single :meth:`EventLogStore.compact`
sweep: closed/expired sessions past the horizon are dropped from the log
segments and the pool table is mark-and-swept from the surviving references.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.packages import Package, PackageEvaluator
from ..core.preferences import HistoryTrie
from ..sampling.base import ConstraintSet
from .store import JsonFilePoolTable, SessionStore

# --------------------------------------------------------------------- events
EVENT_SESSION_CREATED = "session_created"
EVENT_RECOMMEND_SERVED = "recommend_served"
EVENT_FEEDBACK = "feedback"
EVENT_SESSION_TOUCHED = "session_touched"
EVENT_SESSION_SWAPPED = "session_swapped"
EVENT_SESSION_CLOSED = "session_closed"

#: The ``kind`` marker of the payload :meth:`EventLogStore.load` returns.
REPLAY_PAYLOAD_KIND = "eventlog-replay"
REPLAY_PAYLOAD_VERSION = 1

#: Frame header preceding every record: ``(payload_length, crc32(payload))``.
_FRAME = struct.Struct("<II")
_SEGMENT_RE = re.compile(r"^(\d{8})\.log$")
_CONTAINERS = {dict, list, tuple}


def _copy_containers(value):
    """A copy of a JSON-shaped dict or list: new containers, shared scalars.

    Strings and numbers are immutable, so only the dicts and lists a caller
    could mutate are copied; tuples become lists, as a JSON round trip
    would make them.
    """
    if type(value) is dict:
        return {
            key: _copy_containers(item) if type(item) in _CONTAINERS else item
            for key, item in value.items()
        }
    return [
        _copy_containers(item) if type(item) in _CONTAINERS else item
        for item in value
    ]


class EventLogCorruptionError(RuntimeError):
    """A sealed log segment failed CRC validation mid-stream.

    Torn *tails* (a crash mid-append on the final segment) are repaired
    silently by truncation; corruption anywhere else means the storage
    itself is damaged and replay refuses to guess.
    """


class ReplayDivergenceError(RuntimeError):
    """Replaying the log reproduced different state than the log recorded.

    Raised when a re-drawn exploration package differs from the logged one
    or a logged click is rejected by the rebuilt recommender — either means
    the deterministic path changed (catalog, config, or code) since the
    events were written, and the restored session must not serve.
    """


@dataclass(frozen=True)
class LogPosition:
    """Physical location of a record: ``(segment index, byte offset)``.

    Positions are stable until the next :meth:`EventLog.compact`, which may
    rewrite segments in place.
    """

    segment: int
    offset: int


@dataclass(frozen=True)
class LogCompactionStats:
    """What one :meth:`EventLog.compact` sweep reclaimed."""

    segments_rewritten: int
    segments_deleted: int
    events_dropped: int
    bytes_reclaimed: int


@dataclass(frozen=True)
class RetentionReport:
    """What one :meth:`EventLogStore.compact` retention pass reclaimed."""

    sessions_dropped: int
    events_dropped: int
    segments_rewritten: int
    segments_deleted: int
    bytes_reclaimed: int
    pools_collected: int


class EventLog:
    """Segmented, CRC-framed, fsync-batched append-only log.

    Records are JSON payloads framed by ``(length, crc32)`` headers and
    appended to the active segment through an unbuffered handle, so every
    accepted ``append`` survives a process crash; durability against power
    loss is batched — :meth:`flush` fsyncs every ``fsync_every`` appends.
    The active segment rolls at ``segment_max_bytes``; sealed segments are
    immutable except under :meth:`compact`, which rewrites them atomically.

    On open, the *final* segment is scanned and truncated to its longest
    valid prefix (``truncated_bytes`` records how much tail was torn off);
    an invalid record in a *sealed* segment raises
    :class:`EventLogCorruptionError`.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync_every: int = 64,
        segment_max_bytes: int = 4 << 20,
    ) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        if segment_max_bytes < 1:
            raise ValueError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        self.directory = directory
        self.fsync_every = int(fsync_every)
        self.segment_max_bytes = int(segment_max_bytes)
        self.truncated_bytes = 0
        self._appends_since_sync = 0
        os.makedirs(directory, exist_ok=True)
        self._segments = self._discover_segments() or [0]
        self._repair_tail()
        self._active = self._segments[-1]
        # buffering=0: writes reach the OS page cache immediately, so an
        # accepted append survives a process crash even between fsync batches.
        self._handle = open(self._segment_path(self._active), "ab", buffering=0)

    # ------------------------------------------------------------- file layout
    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, f"{index:08d}.log")

    def _discover_segments(self) -> List[int]:
        indices = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match is not None:
                indices.append(int(match.group(1)))
        return sorted(indices)

    # ---------------------------------------------------------------- framing
    @staticmethod
    def _parse(data: bytes) -> Tuple[List[Tuple[dict, int]], int]:
        """Decode ``data`` into ``([(event, offset), ...], valid_prefix_len)``.

        Stops at the first frame whose header is short, whose payload is
        short, whose CRC mismatches, or whose payload is not valid JSON;
        everything before that point is the valid prefix.
        """
        events: List[Tuple[dict, int]] = []
        pos = 0
        size = len(data)
        while pos + _FRAME.size <= size:
            length, crc = _FRAME.unpack_from(data, pos)
            start = pos + _FRAME.size
            end = start + length
            if end > size:
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break
            try:
                event = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            events.append((event, pos))
            pos = end
        return events, pos

    def _read_segment(self, index: int) -> bytes:
        path = self._segment_path(index)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as handle:
            return handle.read()

    def _repair_tail(self) -> None:
        tail = self._segments[-1]
        data = self._read_segment(tail)
        _, valid = self._parse(data)
        if valid < len(data):
            self.truncated_bytes = len(data) - valid
            with open(self._segment_path(tail), "r+b") as handle:
                handle.truncate(valid)

    # --------------------------------------------------------------- appending
    def append(self, event: dict) -> LogPosition:
        """Frame and append one event; returns its :class:`LogPosition`."""
        payload = json.dumps(event, separators=(",", ":")).encode("utf-8")
        offset = self._handle.tell()
        if offset >= self.segment_max_bytes and offset > 0:
            self.roll()
            offset = 0
        self._handle.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        self._appends_since_sync += 1
        if self._appends_since_sync >= self.fsync_every:
            self.flush()
        return LogPosition(self._active, offset)

    def flush(self) -> None:
        """fsync the active segment (called automatically every batch)."""
        os.fsync(self._handle.fileno())
        self._appends_since_sync = 0

    def roll(self) -> None:
        """Seal the active segment and start a new one."""
        self.flush()
        self._handle.close()
        self._active += 1
        self._segments.append(self._active)
        self._handle = open(self._segment_path(self._active), "ab", buffering=0)

    # ----------------------------------------------------------------- reading
    def replay(self) -> Iterator[Tuple[dict, LogPosition]]:
        """Yield every intact event in log order with its position.

        An invalid record in a sealed segment raises
        :class:`EventLogCorruptionError`; the final (active) segment was
        already truncated to its valid prefix on open.
        """
        if self._appends_since_sync:
            self.flush()
        for index in list(self._segments):
            data = self._read_segment(index)
            events, valid = self._parse(data)
            if valid < len(data) and index != self._active:
                raise EventLogCorruptionError(
                    f"sealed segment {self._segment_path(index)} is corrupt at "
                    f"byte {valid} of {len(data)}"
                )
            for event, offset in events:
                yield event, LogPosition(index, offset)

    # -------------------------------------------------------------- compaction
    def compact(self, keep: Callable[[dict], bool]) -> LogCompactionStats:
        """Drop events failing ``keep`` from every segment.

        The active segment is rolled first (when non-empty) so the whole
        backlog is sealed and compactable; each sealed segment is then
        rewritten atomically (temp file + ``os.replace``) when any of its
        events are dropped, and deleted outright when none survive.
        """
        if self._handle.tell() > 0:
            self.roll()
        rewritten = deleted = dropped = 0
        reclaimed = 0
        for index in list(self._segments):
            if index == self._active:
                continue
            data = self._read_segment(index)
            events, _ = self._parse(data)
            kept = [event for event, _ in events if keep(event)]
            if len(kept) == len(events):
                continue
            dropped += len(events) - len(kept)
            path = self._segment_path(index)
            if not kept:
                reclaimed += len(data)
                os.remove(path)
                self._segments.remove(index)
                deleted += 1
                continue
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                for event in kept:
                    payload = json.dumps(event, separators=(",", ":")).encode(
                        "utf-8"
                    )
                    handle.write(
                        _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
                    )
                handle.flush()
                os.fsync(handle.fileno())
            reclaimed += len(data) - os.path.getsize(tmp)
            os.replace(tmp, path)
            rewritten += 1
        return LogCompactionStats(
            segments_rewritten=rewritten,
            segments_deleted=deleted,
            events_dropped=dropped,
            bytes_reclaimed=reclaimed,
        )

    # ------------------------------------------------------------- accounting
    def total_bytes(self) -> int:
        """Bytes held across all segments."""
        return sum(
            os.path.getsize(self._segment_path(index))
            for index in self._segments
            if os.path.exists(self._segment_path(index))
        )

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        """Flush and close the active segment handle."""
        self.flush()
        self._handle.close()


class _SessionRecord:
    """In-memory index entry for one session id, rebuilt from the log."""

    __slots__ = (
        "created",
        "events",
        "checkpoint",
        "checkpoint_seq",
        "last_access",
        "closed",
        "last_ts",
        "seq",
        "position",
    )

    def __init__(self) -> None:
        self.created: Optional[dict] = None
        self.events: List[dict] = []
        self.checkpoint: Optional[dict] = None
        self.checkpoint_seq = 0
        self.last_access: Optional[float] = None
        self.closed = False
        self.last_ts = 0.0
        self.seq = 0
        self.position: Optional[LogPosition] = None


class EventLogStore(SessionStore):
    """A :class:`SessionStore` whose source of truth is an append-only log.

    Layout under ``directory``: ``events/`` holds the :class:`EventLog`
    segments; ``pools/`` is a :class:`JsonFilePoolTable` for the
    content-addressed shared pools.  The per-session index (created event,
    served/feedback history, latest checkpoint, last access) is rebuilt by
    replaying the log on open — there is no second database to keep in sync.

    ``save`` appends an :data:`EVENT_SESSION_SWAPPED` checkpoint event;
    ``load`` returns a *replay payload* (``kind == "eventlog-replay"``)
    that the engine's restore path replays through the deterministic
    elicitation path.  ``delete`` appends a tombstone.  Ordinary snapshot
    blobs saved through this store (sessions imported via the public
    ``restore``) round-trip unchanged as the payload's ``base``.

    ``clock`` stamps event ``ts`` fields and drives :meth:`compact`
    retention; it is injectable for tests.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync_every: int = 64,
        segment_max_bytes: int = 4 << 20,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = directory
        self.clock = clock
        os.makedirs(directory, exist_ok=True)
        self.log = EventLog(
            os.path.join(directory, "events"),
            fsync_every=fsync_every,
            segment_max_bytes=segment_max_bytes,
        )
        self._pool_table = JsonFilePoolTable(os.path.join(directory, "pools"))
        self._records: Dict[str, _SessionRecord] = {}
        self._append_seconds = None
        for event, position in self.log.replay():
            self._index(event, position)

    def attach_telemetry(self, telemetry) -> None:
        """Record per-append latency in ``telemetry``'s metrics registry."""
        self._append_seconds = telemetry.registry.histogram(
            "repro_eventlog_append_seconds",
            "Wall-clock seconds per event-log append (framing + write + index)",
        )

    # ---------------------------------------------------------------- indexing
    def _index(self, event: dict, position: LogPosition) -> None:
        session_id = event.get("session_id")
        etype = event.get("type")
        if session_id is None or etype is None:
            return
        record = self._records.get(session_id)
        if record is None or (
            record.closed
            and etype in (EVENT_SESSION_CREATED, EVENT_SESSION_SWAPPED)
        ):
            # A closed id seeing a fresh create (id reuse) or a swapped blob
            # (re-imported session) starts a new logical incarnation.
            seq_floor = 0 if record is None else record.seq
            record = _SessionRecord()
            record.seq = seq_floor
            self._records[session_id] = record
        record.seq = int(event.get("seq", record.seq + 1))
        record.last_ts = float(event.get("ts", record.last_ts))
        record.position = position
        if etype == EVENT_SESSION_CREATED:
            record.created = event
        elif etype in (EVENT_RECOMMEND_SERVED, EVENT_FEEDBACK):
            record.events.append(event)
        elif etype == EVENT_SESSION_TOUCHED:
            record.last_access = float(event["last_access"])
        elif etype == EVENT_SESSION_SWAPPED:
            record.checkpoint = event["payload"]
            record.checkpoint_seq = record.seq
            if event.get("last_access") is not None:
                record.last_access = float(event["last_access"])
        elif etype == EVENT_SESSION_CLOSED:
            record.closed = True

    def _append(self, session_id: str, etype: str, **data) -> dict:
        record = self._records.get(session_id)
        seq = 1 if record is None else record.seq + 1
        event = {
            "type": etype,
            "session_id": session_id,
            "seq": seq,
            "ts": self.clock(),
            **data,
        }
        started = time.perf_counter()
        position = self.log.append(event)
        self._index(event, position)
        if self._append_seconds is not None:
            self._append_seconds.observe(time.perf_counter() - started)
        return event

    # ------------------------------------------------------ engine append API
    def log_session_created(
        self, session_id: str, *, seed: int, created_at: float
    ) -> None:
        """Record a session birth (its seed is everything replay needs)."""
        self._append(
            session_id, EVENT_SESSION_CREATED, seed=seed, created_at=created_at
        )

    def log_round_served(
        self,
        session_id: str,
        *,
        recommended: List[List[int]],
        random_packages: List[List[int]],
    ) -> None:
        """Record one served round (top-k + exploration package item lists)."""
        self._append(
            session_id,
            EVENT_RECOMMEND_SERVED,
            recommended=recommended,
            random=random_packages,
        )

    def log_feedback(self, session_id: str, *, clicked: List[int]) -> None:
        """Record a click (the item list of the clicked package)."""
        self._append(session_id, EVENT_FEEDBACK, clicked=clicked)

    def log_touch(self, session_id: str, *, last_access: float) -> None:
        """Record a cheap access-time touch for a clean swap-out.

        This is what lets TTL expiry see the true ``_last_access`` of
        sessions whose dirty flag allowed the snapshot write to be skipped.
        """
        self._append(session_id, EVENT_SESSION_TOUCHED, last_access=last_access)

    # --------------------------------------------------- SessionStore interface
    def save(self, session_id: str, payload: dict) -> None:
        """Append a checkpoint event holding ``payload``.

        The manager's ``_last_access`` stowaway key is lifted into the event
        itself so the index tracks access time without polluting the
        checkpoint. The payload reference is retained by the in-memory index
        (the engine builds a fresh snapshot per swap-out, so no aliasing).
        """
        payload = dict(payload)
        last_access = payload.pop("_last_access", None)
        self._append(
            session_id,
            EVENT_SESSION_SWAPPED,
            last_access=last_access,
            payload=payload,
        )

    def load(self, session_id: str) -> Optional[dict]:
        record = self._records.get(session_id)
        if record is None or record.closed:
            return None
        checkpoint = record.checkpoint
        checkpoint_seq = record.checkpoint_seq
        base: Optional[dict] = None
        if checkpoint is not None and "rng_state" in checkpoint:
            # A full snapshot blob (imported via the public restore): its
            # history predates the log, so it stays the base and only the
            # suffix logged after it is replayed on top.
            base, checkpoint = checkpoint, None
        if record.created is None and base is None:
            return None  # no seed to replay from (e.g. only touch events)
        if base is not None:
            events = [e for e in record.events if e["seq"] > checkpoint_seq]
        else:
            events = list(record.events)
        created = record.created or {}
        payload = {
            "kind": REPLAY_PAYLOAD_KIND,
            "version": REPLAY_PAYLOAD_VERSION,
            "session_id": session_id,
            "seed": created.get("seed", (base or {}).get("seed")),
            "created_at": created.get("created_at", (base or {}).get("created_at")),
            "base": base,
            "checkpoint": checkpoint,
            "checkpoint_seq": checkpoint_seq,
            "events": events,
            "log_position": (
                [record.position.segment, record.position.offset]
                if record.position is not None
                else None
            ),
        }
        if record.last_access is not None:
            payload["_last_access"] = record.last_access
        # The index keeps the events and checkpoints: hand out a copy.
        return _copy_containers(payload)

    def delete(self, session_id: str) -> bool:
        record = self._records.get(session_id)
        if record is None or record.closed:
            return False
        self._append(session_id, EVENT_SESSION_CLOSED)
        return True

    def list_ids(self) -> List[str]:
        return sorted(
            session_id
            for session_id, record in self._records.items()
            if not record.closed
            and (record.created is not None or record.checkpoint is not None)
        )

    # -------------------------------------------------------------- pool table
    def save_pool(self, pool_key: str, payload: dict) -> None:
        self._pool_table.save(pool_key, payload)

    def load_pool(self, pool_key: str) -> Optional[dict]:
        return self._pool_table.load(pool_key)

    def has_pool(self, pool_key: str) -> bool:
        return self._pool_table.has(pool_key)

    def delete_pool(self, pool_key: str) -> bool:
        return self._pool_table.delete(pool_key)

    def list_pool_keys(self) -> List[str]:
        return self._pool_table.keys()

    def gc_pools(self, live_refs=None) -> int:
        """Mark-and-sweep the pool table from live log references.

        The default mark set is the pool reference of every non-closed
        session's latest checkpoint — derived from the log index, with no
        snapshot loads.
        """
        if live_refs is None:
            live_refs = (
                self.pool_ref_of(record.checkpoint)
                for record in self._records.values()
                if not record.closed
            )
        return super().gc_pools(live_refs)

    # --------------------------------------------------------------- retention
    def compact(
        self,
        retention_seconds: float = 0.0,
        *,
        ttl_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> RetentionReport:
        """One online retention sweep over the log and the pool table.

        Drops every event belonging to (a) closed sessions whose last event
        is older than ``retention_seconds``, and (b) — when ``ttl_seconds``
        is given — open sessions idle (by store clock) for at least that
        long.  Segment compaction and :meth:`gc_pools` run in the same pass,
        so one call replaces the offline mark-and-sweep as the default.
        """
        if now is None:
            now = self.clock()
        dead = set()
        for session_id, record in self._records.items():
            if record.closed:
                if now - record.last_ts >= retention_seconds:
                    dead.add(session_id)
            elif ttl_seconds is not None and now - record.last_ts >= ttl_seconds:
                dead.add(session_id)
        stats = self.log.compact(lambda event: event.get("session_id") not in dead)
        for session_id in dead:
            self._records.pop(session_id, None)
        pools_collected = self.gc_pools()
        return RetentionReport(
            sessions_dropped=len(dead),
            events_dropped=stats.events_dropped,
            segments_rewritten=stats.segments_rewritten,
            segments_deleted=stats.segments_deleted,
            bytes_reclaimed=stats.bytes_reclaimed,
            pools_collected=pools_collected,
        )

    # -------------------------------------------------------------- inspection
    def iter_session_histories(self) -> Iterator[Tuple[str, List[dict]]]:
        """Yield ``(session_id, served/feedback events)`` for every session.

        Closed sessions are included — their click prefixes are exactly the
        observations prefix mining wants.
        """
        for session_id in sorted(self._records):
            yield session_id, list(self._records[session_id].events)

    def describe(self) -> dict:
        """Log-level counters for :class:`EngineStats` / dashboards."""
        live = sum(1 for r in self._records.values() if not r.closed)
        return {
            "segments": self.log.segment_count,
            "log_bytes": self.log.total_bytes(),
            "sessions_live": live,
            "sessions_closed": len(self._records) - live,
            "events_indexed": sum(
                len(r.events) for r in self._records.values()
            ),
            "truncated_bytes_on_open": self.log.truncated_bytes,
        }

    def total_bytes(self) -> int:
        return self.log.total_bytes() + self._pool_table.total_bytes()

    def flush(self) -> None:
        """fsync any batched appends."""
        self.log.flush()

    def close(self) -> None:
        """Flush and close the log."""
        self.log.close()


# ------------------------------------------------------------- prefix mining
@dataclass(frozen=True, eq=False)
class PrefixStat:
    """One observed click-prefix constraint set, frequency-ranked.

    ``sessions`` counts distinct sessions whose feedback passed through this
    fingerprint; ``depth`` is the smallest click depth at which it was
    reached.
    """

    fingerprint: str
    constraints: ConstraintSet
    depth: int
    sessions: int


def mine_click_prefixes(
    store: EventLogStore,
    evaluator: PackageEvaluator,
    *,
    max_depth: Optional[int] = None,
) -> List[PrefixStat]:
    """Frequency-rank the constraint-set prefixes observed in the log.

    Re-derives, for every logged session, the constraint set after each
    click — the same click-history trie → transitive reduction →
    fingerprint path live sessions take, so sessions with a common prefix
    derive its cone once — and counts how many sessions
    passed through each fingerprint.  The result is sorted most-frequent
    first (ties: shallower depth, then fingerprint), ready for
    ``WarmStartPlanner.warm_from_log``: observed prefixes sidestep the
    enumeration combinatorics that make exhaustive depth-2+ warming
    intractable.
    """
    mined: Dict[str, dict] = {}
    history = HistoryTrie(evaluator)
    for _, events in store.iter_session_histories():
        node = history.root
        presented: List[Package] = []
        depth = 0
        seen: set = set()
        for event in events:
            if event["type"] == EVENT_RECOMMEND_SERVED:
                presented = [
                    Package(tuple(int(i) for i in items))
                    for items in (
                        list(event.get("recommended") or [])
                        + list(event.get("random") or [])
                    )
                ]
            elif event["type"] == EVENT_FEEDBACK:
                if not presented:
                    continue
                clicked = Package(tuple(int(i) for i in event["clicked"]))
                node, _ = history.click(node, clicked, presented)
                depth += 1
                if max_depth is not None and depth > max_depth:
                    break
                constraints = node.cone
                fingerprint = constraints.fingerprint()
                entry = mined.setdefault(
                    fingerprint,
                    {"constraints": constraints, "depth": depth, "sessions": 0},
                )
                entry["depth"] = min(entry["depth"], depth)
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    entry["sessions"] += 1
    stats = [
        PrefixStat(
            fingerprint=fingerprint,
            constraints=entry["constraints"],
            depth=entry["depth"],
            sessions=entry["sessions"],
        )
        for fingerprint, entry in mined.items()
    ]
    stats.sort(key=lambda s: (-s.sessions, s.depth, s.fingerprint))
    return stats

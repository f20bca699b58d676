"""Bounded table of live elicitation sessions with TTL and LRU eviction.

The manager owns session *lifecycle*, not session semantics: the engine
supplies callbacks that snapshot an active session to a JSON payload and
rebuild one from a payload.  With a :class:`~repro.service.store.SessionStore`
configured, sessions evicted for capacity are swapped out to the store and
transparently restored on their next request — the request/response API never
observes the eviction.  Sessions idle past the TTL are expired for good.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Set

from repro.core.elicitation import PackageRecommender
from repro.service.store import SessionStore


class SessionNotFoundError(KeyError):
    """The session id is not active and has no stored snapshot."""


class SessionExpiredError(SessionNotFoundError):
    """The session existed but sat idle past the configured TTL."""


@dataclass
class SessionEntry:
    """One live session: the per-user recommender plus serving metadata.

    ``dirty`` tracks whether the session's state has diverged from its last
    stored snapshot: new sessions start dirty, serving a round or applying
    feedback dirties an entry, and a restore (or a swap-out write) cleans it.
    Swap-out skips the snapshot + store write for clean entries.
    """

    session_id: str
    recommender: PackageRecommender
    seed: int
    created_at: float
    last_access: float
    pool_key: Optional[str] = None
    rounds_served: int = 0
    feedback_events: int = 0
    dirty: bool = True
    #: Whether the session's full history is reconstructable from the
    #: engine's event log.  Sessions imported from a snapshot blob (public
    #: ``restore``) carry history the log never saw and must keep writing
    #: full blobs on swap-out.
    replayable: bool = True


#: Engine-supplied (de)hydration callbacks.
SnapshotFn = Callable[[SessionEntry], dict]
RestoreFn = Callable[[dict], SessionEntry]


class SessionManager:
    """TTL + LRU session table with swap-out to a session store.

    Parameters
    ----------
    max_active:
        Maximum number of sessions held in memory; the least recently used
        session beyond this is swapped out (with a store) or dropped.
    ttl_seconds:
        Idle time after which a session expires permanently; ``None`` never
        expires.
    store:
        Optional durable store for swapped-out sessions.
    snapshot_fn / restore_fn:
        Callbacks that serialise/deserialise a session; required when a store
        is configured.
    touch_fn:
        Optional callback invoked when a *clean* entry is swapped out without
        a snapshot write; log-backed stores use it to append a cheap touch
        record so TTL expiry still sees the true ``_last_access``.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_active: int,
        ttl_seconds: Optional[float] = None,
        store: Optional[SessionStore] = None,
        snapshot_fn: Optional[SnapshotFn] = None,
        restore_fn: Optional[RestoreFn] = None,
        touch_fn: Optional[Callable[[SessionEntry], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_active <= 0:
            raise ValueError(f"max_active must be > 0, got {max_active}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0 or None, got {ttl_seconds}")
        if store is not None and (snapshot_fn is None or restore_fn is None):
            raise ValueError("snapshot_fn and restore_fn are required with a store")
        self.max_active = int(max_active)
        self.ttl_seconds = ttl_seconds
        self.store = store
        self.snapshot_fn = snapshot_fn
        self.restore_fn = restore_fn
        self.touch_fn = touch_fn
        self.clock = clock
        self._active: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._pinned: Set[str] = set()
        self.sessions_expired = 0
        self.sessions_swapped_out = 0
        self.sessions_restored = 0
        self.swap_writes_skipped = 0

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._active)

    def __contains__(self, session_id: str) -> bool:
        """Whether the id names a *live* session (active or restorable).

        A swapped-out snapshot idle past the TTL does not count: it is
        reclaimed from the store on the spot, so its id becomes reusable and
        expired snapshots cannot accumulate behind ids nobody acquires.
        """
        if session_id in self._active:
            return True
        if self.store is None:
            return False
        payload = self.store.load(session_id)
        if payload is None:
            return False
        last_access = payload.get("_last_access", self.clock())
        if self._expired(last_access, self.clock()):
            self.store.delete(session_id)
            self.sessions_expired += 1
            return False
        return True

    def active_ids(self) -> List[str]:
        """Active session ids, least recently used first."""
        return list(self._active.keys())

    # ------------------------------------------------------------------ expiry
    def _expired(self, last_access: float, now: float) -> bool:
        return self.ttl_seconds is not None and now - last_access > self.ttl_seconds

    def sweep_expired(self) -> int:
        """Expire every active session idle past the TTL; returns the count."""
        if self.ttl_seconds is None:
            return 0
        now = self.clock()
        expired = [
            sid
            for sid, entry in self._active.items()
            if self._expired(entry.last_access, now)
        ]
        for sid in expired:
            self._active.pop(sid)
            if self.store is not None:
                self.store.delete(sid)
            self.sessions_expired += 1
        return len(expired)

    # ---------------------------------------------------------------- capacity
    def pin(self, session_id: str) -> None:
        """Protect an active session from capacity eviction until unpinned.

        A batched serve acquires many entries before serving any of them;
        without pinning, acquiring a later session could swap out an earlier
        one mid-batch, and its round would be served onto a detached entry
        whose pre-serve snapshot is what later requests restore.
        """
        self._pinned.add(session_id)

    def unpin(self, session_ids: Iterable[str]) -> None:
        """Release pins and enforce capacity with the sessions' final state."""
        self._pinned.difference_update(session_ids)
        self._enforce_capacity()

    def _enforce_capacity(self) -> None:
        while len(self._active) > self.max_active:
            session_id = next(
                (sid for sid in self._active if sid not in self._pinned), None
            )
            if session_id is None:
                # Everything over capacity is pinned by an in-flight batch;
                # unpin() re-enforces once the batch completes.
                return
            entry = self._active.pop(session_id)
            if self.store is not None:
                if entry.dirty:
                    payload = self.snapshot_fn(entry)
                    payload["_last_access"] = entry.last_access
                    self.store.save(session_id, payload)
                    entry.dirty = False
                else:
                    # The entry is byte-for-byte what its last stored snapshot
                    # restores to (it was restored and never served a round or
                    # fed back since), so re-serialising it — which would also
                    # re-materialise its pool — buys nothing.  Without a
                    # touch_fn the skipped write leaves the *older*
                    # `_last_access` in the store, so TTL expiry of a clean
                    # swap-out is conservative (it may expire up to one idle
                    # period earlier, never later); a touch_fn closes even
                    # that gap with a cheap access-time record.
                    if self.touch_fn is not None:
                        self.touch_fn(entry)
                    self.swap_writes_skipped += 1
                self.sessions_swapped_out += 1
            # Without a store the LRU session is simply dropped; its id will
            # raise SessionNotFoundError on the next request.

    # --------------------------------------------------------------- lifecycle
    def add(self, entry: SessionEntry) -> None:
        """Register a new session (evicting LRU sessions beyond capacity)."""
        self._active[entry.session_id] = entry
        self._active.move_to_end(entry.session_id)
        self._enforce_capacity()

    def acquire(self, session_id: str) -> SessionEntry:
        """Fetch a session for a request, touching its recency and TTL clock.

        Swapped-out sessions are restored from the store; expired sessions
        raise :class:`SessionExpiredError` and unknown ids
        :class:`SessionNotFoundError`.
        """
        now = self.clock()
        entry = self._active.get(session_id)
        if entry is not None:
            if self._expired(entry.last_access, now):
                self._active.pop(session_id)
                if self.store is not None:
                    self.store.delete(session_id)
                self.sessions_expired += 1
                raise SessionExpiredError(session_id)
            entry.last_access = now
            self._active.move_to_end(session_id)
            return entry
        if self.store is not None:
            payload = self.store.load(session_id)
            if payload is not None:
                last_access = payload.pop("_last_access", now)
                if self._expired(last_access, now):
                    self.store.delete(session_id)
                    self.sessions_expired += 1
                    raise SessionExpiredError(session_id)
                entry = self.restore_fn(payload)
                entry.last_access = now
                entry.dirty = False  # identical to the snapshot it came from
                self.sessions_restored += 1
                self._active[session_id] = entry
                self._active.move_to_end(session_id)
                self._enforce_capacity()
                return entry
        raise SessionNotFoundError(session_id)

    def peek(self, session_id: str) -> Optional[SessionEntry]:
        """The in-memory entry for ``session_id``, or ``None`` — no side effects.

        Unlike :meth:`acquire`, peeking never touches recency or the TTL
        clock, never restores a swapped-out session, and never raises: it is
        for planning passes (e.g. :meth:`RecommendationEngine.fill_shard_plan`
        asking which shard owns a session's next fill) that must not perturb
        session lifecycle.
        """
        return self._active.get(session_id)

    def remove(self, session_id: str, drop_snapshot: bool = True) -> bool:
        """Close a session; returns whether anything was removed."""
        removed = self._active.pop(session_id, None) is not None
        if self.store is not None and drop_snapshot:
            removed = self.store.delete(session_id) or removed
        return removed

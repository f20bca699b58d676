"""Durable session-state stores for swap-out/restore and snapshots.

The serving engine keeps only a bounded number of sessions in memory; the
rest live in a :class:`SessionStore` as JSON payloads produced by
:meth:`RecommendationEngine.snapshot`.  Two durable backends are provided:

* :class:`JsonSessionStore` — one ``<session_id>.json`` file per session,
  trivially inspectable and diff-friendly;
* :class:`SqliteSessionStore` — a single SQLite database in WAL mode
  (concurrent readers while the engine writes), with the session id as the
  primary key and ISO-8601 UTC timestamps, following the schema conventions
  of the related-work snippets.

:class:`MemorySessionStore` backs tests and single-process engines that only
need swap-out semantics without durability.
"""

from __future__ import annotations

import abc
import json
import os
import sqlite3
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional
from urllib.parse import quote, unquote


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class SessionStore(abc.ABC):
    """Abstract keyed store of JSON-serialisable session snapshots.

    Beyond per-session snapshots, every store carries a *pool table*: pool
    payloads keyed by the engine's pool keys (``n<count>:<fingerprint>``).
    Reference snapshots (snapshot compaction) point into it — a pool shared
    by thousands of sessions is persisted once, not once per session.  Pool
    payloads are content-addressed by their key and therefore never
    overwritten; they outlive individual sessions by design (deleting a
    session must not break the other sessions referencing its pool) and are
    reclaimed explicitly via :meth:`delete_pool`, or in bulk by the
    :meth:`gc_pools` mark-and-sweep.
    """

    @abc.abstractmethod
    def save(self, session_id: str, payload: dict) -> None:
        """Persist (or overwrite) the snapshot for ``session_id``."""

    @abc.abstractmethod
    def load(self, session_id: str) -> Optional[dict]:
        """The stored snapshot, or ``None`` when the id is unknown."""

    @abc.abstractmethod
    def delete(self, session_id: str) -> bool:
        """Remove a snapshot; returns whether one existed."""

    @abc.abstractmethod
    def list_ids(self) -> List[str]:
        """Ids of every stored snapshot (sorted)."""

    # ------------------------------------------------------------- pool table
    @abc.abstractmethod
    def save_pool(self, pool_key: str, payload: dict) -> None:
        """Persist a shared pool payload under its repository key."""

    @abc.abstractmethod
    def load_pool(self, pool_key: str) -> Optional[dict]:
        """The stored pool payload, or ``None`` when the key is unknown."""

    @abc.abstractmethod
    def has_pool(self, pool_key: str) -> bool:
        """Whether a pool payload exists, without loading it.

        A cheap existence probe (stat / SELECT 1) — the engine calls it on
        every swap-out to deduplicate pool writes.
        """

    @abc.abstractmethod
    def delete_pool(self, pool_key: str) -> bool:
        """Remove a pool payload; returns whether one existed."""

    @abc.abstractmethod
    def list_pool_keys(self) -> List[str]:
        """Keys of every stored pool payload (sorted)."""

    # --------------------------------------------------- pool-table collection
    @staticmethod
    def pool_ref_of(payload: Optional[dict]) -> Optional[str]:
        """The content-addressed pool-table key a snapshot payload references.

        Reference snapshots (``embed_pool=False``) carry ``{"key", "digest"}``
        and point at the pool-table entry ``key#digest``; embedded snapshots
        carry their samples inline and reference nothing.  Returns ``None``
        for embedded, pool-less, or malformed payloads.
        """
        pool = (payload or {}).get("pool") or {}
        key, digest = pool.get("key"), pool.get("digest")
        if key is None or digest is None or "samples" in pool:
            return None
        return f"{key}#{digest}"

    def gc_pools(self, live_refs: Optional[Iterable[str]] = None) -> int:
        """Mark-and-sweep the pool table; returns ``pools_collected``.

        Pool payloads are content-addressed and never overwritten, so a
        long-lived store accumulates entries whose referencing snapshots are
        gone.  ``live_refs`` is the mark set — the ``key#digest`` references
        that must survive; when ``None`` it is derived from the store's own
        snapshots (every stored session is loaded and its pool reference
        collected).  Everything in the pool table outside the mark set is
        deleted.

        Callers with pools referenced from *outside* the store (live engine
        sessions that have not swapped out yet) must pass those references
        explicitly — the default mark only sees stored snapshots.
        """
        if live_refs is None:
            live_refs = (
                self.pool_ref_of(self.load(session_id))
                for session_id in self.list_ids()
            )
        live = {ref for ref in live_refs if ref is not None}
        pools_collected = 0
        for pool_key in self.list_pool_keys():
            if pool_key not in live and self.delete_pool(pool_key):
                pools_collected += 1
        return pools_collected

    # ------------------------------------------------------------ accounting
    def total_bytes(self) -> int:
        """Bytes held by the store (sessions + pools), for compaction metrics.

        Optional: backends that can measure themselves override this; the
        default raises, since the ABC has no view of session storage.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement total_bytes()"
        )

    def __contains__(self, session_id: str) -> bool:
        return self.load(session_id) is not None


class MemorySessionStore(SessionStore):
    """In-process dictionary store (no durability; useful for tests)."""

    def __init__(self) -> None:
        self._payloads: Dict[str, dict] = {}
        self._pools: Dict[str, dict] = {}

    def save(self, session_id: str, payload: dict) -> None:
        self._payloads[session_id] = json.loads(json.dumps(payload))

    def load(self, session_id: str) -> Optional[dict]:
        payload = self._payloads.get(session_id)
        return json.loads(json.dumps(payload)) if payload is not None else None

    def delete(self, session_id: str) -> bool:
        return self._payloads.pop(session_id, None) is not None

    def list_ids(self) -> List[str]:
        return sorted(self._payloads)

    def save_pool(self, pool_key: str, payload: dict) -> None:
        self._pools[pool_key] = json.loads(json.dumps(payload))

    def load_pool(self, pool_key: str) -> Optional[dict]:
        payload = self._pools.get(pool_key)
        return json.loads(json.dumps(payload)) if payload is not None else None

    def has_pool(self, pool_key: str) -> bool:
        return pool_key in self._pools

    def delete_pool(self, pool_key: str) -> bool:
        return self._pools.pop(pool_key, None) is not None

    def list_pool_keys(self) -> List[str]:
        return sorted(self._pools)

    def total_bytes(self) -> int:
        return sum(
            len(json.dumps(payload).encode("utf-8"))
            for table in (self._payloads, self._pools)
            for payload in table.values()
        )


class JsonFilePoolTable:
    """A durable pool table: one atomic JSON file per pool key.

    Factored out of :class:`JsonSessionStore` so every directory-backed store
    (JSON snapshots, the event-log store) shares one pool-file scheme: pool
    keys are percent-encoded into flat ``<key>.json`` files, written via a
    temp-file + :func:`os.replace` so readers never observe partial JSON.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, pool_key: str) -> str:
        return os.path.join(self.directory, f"{quote(pool_key, safe='')}.json")

    @staticmethod
    def write_atomic(path: str, document: dict) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)  # atomic on POSIX: readers never see partial JSON

    def save(self, pool_key: str, payload: dict) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self.write_atomic(
            self._path(pool_key), {"saved_at": _utc_now_iso(), "payload": payload}
        )

    def load(self, pool_key: str) -> Optional[dict]:
        path = self._path(pool_key)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)["payload"]

    def has(self, pool_key: str) -> bool:
        return os.path.exists(self._path(pool_key))

    def delete(self, pool_key: str) -> bool:
        path = self._path(pool_key)
        if not os.path.exists(path):
            return False
        os.remove(path)
        return True

    def keys(self) -> List[str]:
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            unquote(name[: -len(".json")])
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def total_bytes(self) -> int:
        if not os.path.isdir(self.directory):
            return 0
        return sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )


class JsonSessionStore(SessionStore):
    """One JSON file per session under a directory.

    Shared pool payloads live in a ``pools/`` subdirectory, one file per
    pool key (the subdirectory never collides with session files because
    session ids are stored flat with a ``.json`` suffix).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._pool_table = JsonFilePoolTable(os.path.join(directory, "pools"))
        self.pools_directory = self._pool_table.directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, session_id: str) -> str:
        # Percent-encoding is collision-free and reversible, so arbitrary
        # session ids ("a/b" vs "a_b") can never overwrite each other's files.
        return os.path.join(self.directory, f"{quote(session_id, safe='')}.json")

    _write_atomic = staticmethod(JsonFilePoolTable.write_atomic)

    def save(self, session_id: str, payload: dict) -> None:
        self._write_atomic(
            self._path(session_id),
            {"saved_at": _utc_now_iso(), "payload": payload},
        )

    def load(self, session_id: str) -> Optional[dict]:
        path = self._path(session_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)["payload"]

    def delete(self, session_id: str) -> bool:
        path = self._path(session_id)
        if not os.path.exists(path):
            return False
        os.remove(path)
        return True

    def list_ids(self) -> List[str]:
        return sorted(
            unquote(name[: -len(".json")])
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

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

    def total_bytes(self) -> int:
        total = self._pool_table.total_bytes()
        if os.path.isdir(self.directory):
            total += sum(
                os.path.getsize(os.path.join(self.directory, name))
                for name in os.listdir(self.directory)
                if name.endswith(".json")
            )
        return total


class SqliteSessionStore(SessionStore):
    """SQLite-backed store in WAL mode.

    Schema::

        sessions(
            session_id TEXT PRIMARY KEY,
            created_at TEXT NOT NULL,   -- ISO-8601 UTC
            updated_at TEXT NOT NULL,   -- ISO-8601 UTC
            payload    TEXT NOT NULL    -- JSON snapshot
        )
        pools(
            pool_key   TEXT PRIMARY KEY,
            created_at TEXT NOT NULL,   -- ISO-8601 UTC
            payload    TEXT NOT NULL    -- JSON pool (samples + weights)
        )
    """

    _PRAGMAS = (
        ("journal_mode", "WAL"),
        ("synchronous", "NORMAL"),
        ("busy_timeout", "30000"),
    )

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._connection = sqlite3.connect(path)
        for pragma, value in self._PRAGMAS:
            self._connection.execute(f"PRAGMA {pragma}={value}")
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS sessions (
                session_id TEXT PRIMARY KEY,
                created_at TEXT NOT NULL,
                updated_at TEXT NOT NULL,
                payload    TEXT NOT NULL
            )
            """
        )
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS pools (
                pool_key   TEXT PRIMARY KEY,
                created_at TEXT NOT NULL,
                payload    TEXT NOT NULL
            )
            """
        )
        self._connection.commit()

    def save(self, session_id: str, payload: dict) -> None:
        now = _utc_now_iso()
        self._connection.execute(
            """
            INSERT INTO sessions (session_id, created_at, updated_at, payload)
            VALUES (?, ?, ?, ?)
            ON CONFLICT(session_id) DO UPDATE
            SET updated_at = excluded.updated_at, payload = excluded.payload
            """,
            (session_id, now, now, json.dumps(payload)),
        )
        self._connection.commit()

    def load(self, session_id: str) -> Optional[dict]:
        row = self._connection.execute(
            "SELECT payload FROM sessions WHERE session_id = ?", (session_id,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def delete(self, session_id: str) -> bool:
        cursor = self._connection.execute(
            "DELETE FROM sessions WHERE session_id = ?", (session_id,)
        )
        self._connection.commit()
        return cursor.rowcount > 0

    def list_ids(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT session_id FROM sessions ORDER BY session_id"
        ).fetchall()
        return [row[0] for row in rows]

    def save_pool(self, pool_key: str, payload: dict) -> None:
        # The engine's pool-table keys are content-addressed
        # (fingerprint#digest), so an existing row is already the same
        # content and conflicts are ignored, not replaced.
        self._connection.execute(
            """
            INSERT INTO pools (pool_key, created_at, payload)
            VALUES (?, ?, ?)
            ON CONFLICT(pool_key) DO NOTHING
            """,
            (pool_key, _utc_now_iso(), json.dumps(payload)),
        )
        self._connection.commit()

    def load_pool(self, pool_key: str) -> Optional[dict]:
        row = self._connection.execute(
            "SELECT payload FROM pools WHERE pool_key = ?", (pool_key,)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    def has_pool(self, pool_key: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM pools WHERE pool_key = ?", (pool_key,)
        ).fetchone()
        return row is not None

    def delete_pool(self, pool_key: str) -> bool:
        cursor = self._connection.execute(
            "DELETE FROM pools WHERE pool_key = ?", (pool_key,)
        )
        self._connection.commit()
        return cursor.rowcount > 0

    def list_pool_keys(self) -> List[str]:
        rows = self._connection.execute(
            "SELECT pool_key FROM pools ORDER BY pool_key"
        ).fetchall()
        return [row[0] for row in rows]

    def total_bytes(self) -> int:
        (session_bytes,) = self._connection.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM sessions"
        ).fetchone()
        (pool_bytes,) = self._connection.execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM pools"
        ).fetchone()
        return int(session_bytes) + int(pool_bytes)

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

"""Disk spill for visited sets: an LRU dict that overflows to SQLite.

The explorer's visited set is the one data structure that grows with
the reachable state space, so it is the one that decides how far a
search can go on a fixed-RAM box.  :class:`SpillDict` keeps a bounded
hot cache in memory (an ``OrderedDict`` in LRU order) and evicts the
coldest entries in batches to a single-table SQLite file.  BFS locality
makes this cheap: the frontier revisits recent fingerprints far more
often than ancient ones, so the hot cache absorbs almost every lookup
and the disk sees append-mostly traffic.

Keys are canonical fingerprints (hex digests or nested tuples of
primitives) and are encoded as ``repr(key)`` bytes — *not* pickled.
Pickle is unsuitable as a key codec here: its memo emits backreferences
for shared sub-objects, so two equal fingerprints serialize differently
depending on interning history.  ``repr`` of the fingerprint types the
explorer produces is injective and canonical.  Values (sleep sets) are
pickled; they are only ever read back, never compared as bytes.

The SQLite handle is opened lazily on the first spill, so a search
that fits in the hot cache never touches the disk.

Durability is deliberately zero (``journal_mode=OFF``,
``synchronous=OFF``): the store is a scratch overflow that dies with
the run, so every write barrier would be pure overhead.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from collections import OrderedDict
from typing import Any, Hashable, Iterator, Optional

__all__ = ["SpillDict"]

_MISSING = object()


def _encode_key(key: Hashable) -> bytes:
    return repr(key).encode("utf-8")


class SpillDict:
    """A dict-compatible store whose cold entries live in SQLite.

    Parameters
    ----------
    path:
        Filesystem path for the SQLite file (created on first spill).
    max_entries:
        Hot-cache capacity.  When an insert pushes the in-memory map
        past this bound, the coldest ``~12%`` of entries are moved to
        disk in one batch (batching amortizes the INSERT overhead; a
        per-entry eviction would thrash on every insert once full).

    Supports the mapping subset :class:`~repro.explore.engine.VisitedStore`
    needs — ``get`` / ``__setitem__`` / ``__len__`` / ``__contains__`` —
    plus :attr:`spilled` (total evictions, surfaced in
    :class:`~repro.explore.engine.ExploreStats`) and :meth:`close`.

    Invariant: a key lives in the hot cache *or* on disk, never both.
    A disk hit is promoted back into the hot cache (true LRU, and it
    keeps ``len`` a simple sum).
    """

    def __init__(self, path: "os.PathLike[str] | str", max_entries: int = 200_000) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._path = os.fspath(path)
        self._max = int(max_entries)
        self._hot: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._db: Optional[sqlite3.Connection] = None
        self._disk_count = 0
        #: total entries ever evicted to disk (monotone counter).
        self.spilled = 0

    # -- plumbing ----------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        if self._db is None:
            self._db = sqlite3.connect(self._path)
            # Scratch data: trade all durability for write speed.
            self._db.execute("PRAGMA journal_mode=OFF")
            self._db.execute("PRAGMA synchronous=OFF")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS kv (k BLOB PRIMARY KEY, v BLOB)"
            )
        return self._db

    def _evict_if_full(self) -> None:
        if len(self._hot) <= self._max:
            return
        batch = max(1, self._max // 8)
        rows = []
        for _ in range(min(batch, len(self._hot) - 1)):
            key, value = self._hot.popitem(last=False)  # coldest first
            rows.append((_encode_key(key), pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)))
        conn = self._conn()
        conn.executemany("INSERT OR REPLACE INTO kv (k, v) VALUES (?, ?)", rows)
        self._disk_count += len(rows)
        self.spilled += len(rows)

    def _disk_pop(self, key: Hashable) -> Any:
        """Remove ``key`` from disk and return its value, or ``_MISSING``."""
        if self._disk_count == 0:
            return _MISSING
        encoded = _encode_key(key)
        conn = self._conn()
        row = conn.execute("SELECT v FROM kv WHERE k = ?", (encoded,)).fetchone()
        if row is None:
            return _MISSING
        conn.execute("DELETE FROM kv WHERE k = ?", (encoded,))
        self._disk_count -= 1
        return pickle.loads(row[0])

    # -- mapping interface -------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._hot:
            self._hot.move_to_end(key)
            return self._hot[key]
        value = self._disk_pop(key)
        if value is _MISSING:
            return default
        self._hot[key] = value  # promote
        self._evict_if_full()
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if key in self._hot:
            self._hot[key] = value
            self._hot.move_to_end(key)
            return
        # Overwriting a cold entry: drop the stale disk copy first so
        # the hot/disk-disjoint invariant (and len) stays exact.
        if self._disk_pop(key) is not _MISSING:
            pass
        self._hot[key] = value
        self._evict_if_full()

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return len(self._hot) + self._disk_count

    def __iter__(self) -> Iterator[Hashable]:
        raise TypeError(
            "SpillDict does not support iteration: disk keys are stored "
            "as encoded bytes and cannot be decoded back to fingerprints"
        )

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None

    def __repr__(self) -> str:
        return (
            f"SpillDict(hot={len(self._hot)}, disk={self._disk_count}, "
            f"spilled={self.spilled}, path={self._path!r})"
        )

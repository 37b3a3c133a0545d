"""Stable storage for crash-recovery processes.

In the crash-recovery model a process that restarts has lost everything
in memory — registers, queues, timers — and keeps only what it
explicitly wrote to **stable storage** before the crash.  Durability is
therefore an *opt-in* per value: a protocol that wants a counter, a
log, or a quorum promise to survive must ``ctx.stable.put(...)`` it at
the moment the value becomes critical, and reload it in ``on_recover``.

:class:`StableStorage` is a tiny persistent key→value map owned by the
runtime (so it survives the wipe that recovery performs on the process
object itself).  Writes are metered in payload units, mirroring the
message-volume accounting: fsyncs are not free, and a protocol that
logs every message to disk should look expensive in the results.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from ..core.volume import payload_units

_MISSING = object()


class StableStorage:
    """Durable per-process key→value store (survives crash-recovery).

    Values are stored by reference — the sanitizer / discipline around
    aliasing is the same as for message payloads.  ``writes`` and
    ``payload_units_written`` count every :meth:`put` so runs can report
    the durability cost of a protocol next to its message cost.
    """

    def __init__(self) -> None:
        self._data: Dict[object, object] = {}
        self.writes = 0
        self.payload_units_written = 0

    def put(self, key: object, value: object) -> None:
        """Durably write ``key -> value`` (a synchronous fsync, in spirit)."""
        self._data[key] = value
        self.writes += 1
        self.payload_units_written += payload_units(value)

    def get(self, key: object, default: object = None) -> object:
        return self._data.get(key, default)

    def delete(self, key: object) -> None:
        """Remove ``key`` if present (missing keys are fine: idempotent)."""
        self._data.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Tuple[object, ...]:
        return tuple(self._data.keys())

    def items(self) -> Iterator[Tuple[object, object]]:
        return iter(self._data.items())

    def snapshot(self) -> Dict[object, object]:
        """A shallow copy of the current contents."""
        return dict(self._data)

    def restore(self, items: Iterable[Tuple[object, object]]) -> None:
        """Replace the contents by ``items`` without counting writes.

        The exploration model loads stored configurations this way: the
        values were written (and metered) on the path that reached them.
        """
        self._data = dict(items)

"""Disk spill of the visited set: the SpillDict store and the engine.

``explore(..., spill_dir=...)`` backs the visited set with a
:class:`~repro.explore.spill.SpillDict` (an LRU hot cache over SQLite);
the search must visit exactly what the in-memory search visits.
"""

import pytest

from repro.explore import SpillDict, explore

from tests.test_explore_engine import GridModel


class TestSpill:
    def test_serial_spill_matches_unspilled(self, tmp_path):
        plain = explore(GridModel(8, 8))
        spilled = explore(
            GridModel(8, 8), spill_dir=str(tmp_path), spill_entries=10
        )
        assert spilled.stats.spilled > 0
        assert spilled.stats.states == plain.stats.states == 81
        assert spilled.stats.transitions == plain.stats.transitions


class TestSpillDict:
    def test_roundtrip_within_hot_cache(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=100)
        store["a"] = frozenset({1})
        assert store.get("a") == frozenset({1})
        assert "a" in store and "b" not in store
        assert len(store) == 1
        assert store.spilled == 0
        store.close()

    def test_eviction_and_promotion(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=8)
        for i in range(40):
            store[("key", i)] = frozenset({i})
        assert store.spilled > 0
        assert len(store) == 40
        # Cold keys come back from disk, bit-exact, and promote to hot.
        for i in range(40):
            assert store.get(("key", i)) == frozenset({i})
        assert len(store) == 40
        store.close()

    def test_overwrite_cold_entry_keeps_len_exact(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite", max_entries=4)
        for i in range(16):
            store[i] = frozenset({i})
        store[0] = frozenset({"updated"})  # 0 is cold by now
        assert store.get(0) == frozenset({"updated"})
        assert len(store) == 16
        store.close()

    def test_stale_file_is_discarded_on_reopen(self, tmp_path):
        path = tmp_path / "kv.sqlite"
        first = SpillDict(path, max_entries=1)
        first["a"] = frozenset({1})
        first["b"] = frozenset({2})  # forces "a" to disk
        first.close()
        second = SpillDict(path, max_entries=1)
        # A SpillDict is scratch storage: reopening must not resurrect
        # a previous (possibly aborted) run's visited entries.
        assert second.get("a") is None
        assert len(second) == 0
        second.close()

    def test_iteration_is_rejected(self, tmp_path):
        store = SpillDict(tmp_path / "kv.sqlite")
        with pytest.raises(TypeError):
            list(store)
        store.close()

    def test_bad_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SpillDict(tmp_path / "kv.sqlite", max_entries=0)

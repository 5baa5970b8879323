"""The bounded LRU primitive shared by the evaluator and GA backends."""

import pytest

from repro.utils.cache import LruCache


class TestLruCache:
    def test_put_get_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache["a"] == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LruCache(4)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42
        with pytest.raises(KeyError):
            cache["missing"]

    def test_capacity_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now stalest
        cache.put("c", 3)
        assert "a" in cache
        assert "c" in cache
        assert cache.get("b") is None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_overwrite_refreshes_without_evicting(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, not insert
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache["a"] == 10

    def test_counters(self):
        cache = LruCache(8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_membership_leaves_counters_and_recency_alone(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache
        assert "nope" not in cache
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", 3)  # "a" stays the stalest entry despite the probe
        assert "a" not in cache
        assert "b" in cache

    def test_clear(self):
        cache = LruCache(8)
        cache["a"] = 1
        cache["b"] = 2
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None  # counters survive, entries don't
        assert cache.misses >= 1

    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_setitem_alias(self):
        cache = LruCache(2)
        cache["k"] = "v"
        assert cache["k"] == "v"

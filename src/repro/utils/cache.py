"""Bounded LRU cache with hit/miss/eviction counters.

The mapping search memoizes at several granularities — level-1
sub-problem solutions in a session, per-layer costs in the evaluator,
decoded genomes in the level-2 fitness — and all of those caches must
stay bounded on long-running services (the north-star deployment keeps
one evaluator alive across millions of requests). This LRU is the
shared primitive: a thin ``OrderedDict`` wrapper with recency-based
eviction and cumulative counters, exposing just enough of the mapping
protocol (``in``, ``[]``) to drop into existing dict-shaped call sites.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from repro.utils.validation import require_positive

_MISSING = object()


class LruCache:
    """A bounded mapping that evicts the least-recently-used entry.

    Lookups (``get``, ``__getitem__``) refresh recency and update the
    ``hits``/``misses`` counters; ``in`` is a plain membership test that
    touches neither. Writes beyond ``capacity`` evict the stalest entry
    and bump ``evictions``.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        require_positive(capacity, "capacity")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    # -- mapping protocol (the subset dict-shaped call sites use) ------

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getitem__(self, key: Hashable) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries; counters (cumulative by design) survive."""
        self._data.clear()

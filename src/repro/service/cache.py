"""Bounded LRU result cache with hit/miss accounting.

Keyword+range workloads are heavily skewed in practice (Zipf over keywords,
hot regions over space), so a small exact-match cache absorbs a large share
of a repeated workload.  The cache is deliberately simple: exact key match on
``(rect corners, frozenset(keywords))``, least-recently-used eviction, and
counters the engine surfaces in its stats.  Entries are whatever the engine
stores; the cache never copies, so the engine stores immutable tuples of
result objects — a caller mutating what it got back cannot poison later
hits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from ..errors import ValidationError

#: Sentinel distinguishing "not cached" from a cached empty result.
_MISSING = object()


class LRUCache:
    """An ordered-dict LRU with hit/miss/eviction counters.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``0`` disables caching (every lookup is a
        miss, nothing is stored).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValidationError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Insert-pressure evictions only: entries pushed out by :meth:`put`
        #: on a full cache.  Evictions caused by shrinking the capacity at
        #: runtime are counted separately in :attr:`capacity_evictions` —
        #: lumping them together made a post-reconfiguration ``stats()``
        #: read as sudden workload pressure.
        self.evictions = 0
        #: Entries dropped by :meth:`resize` shrinking the capacity.
        self.capacity_evictions = 0

    def get(self, key: Hashable) -> Any:
        """Return the cached value (refreshing recency) or ``None`` on miss.

        Use :meth:`lookup` when cached values may legitimately be ``None``.
        """
        value, hit = self.lookup(key)
        return value if hit else None

    def lookup(self, key: Hashable) -> Tuple[Any, bool]:
        """Return ``(value, True)`` on a hit, ``(None, False)`` on a miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None, False
        self._entries.move_to_end(key)
        self.hits += 1
        return value, True

    def put(self, key: Hashable, value: Any) -> int:
        """Insert (or refresh) ``key``; evict the LRU entry when full.

        Returns how many entries were evicted by this insert (0 or 1 in
        practice) so the engine can emit a ``cache_evict`` telemetry event
        without the cache holding a callback — engines pickle their cache,
        and a stored callable would break index snapshots.
        """
        if self.capacity == 0:
            return 0
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            evicted += 1
        return evicted

    def resize(self, capacity: int) -> None:
        """Change the capacity at runtime (engine reconfiguration).

        Shrinking below the current size drops the least-recently-used
        entries immediately, counted in :attr:`capacity_evictions` — not in
        :attr:`evictions`, which stays a pure insert-pressure signal.
        Resizing to ``0`` disables caching (and empties the cache).
        """
        if capacity < 0:
            raise ValidationError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        while len(self._entries) > capacity:
            self._entries.popitem(last=False)
            self.capacity_evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> Optional[float]:
        """Hits / lookups, or ``None`` before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else None

    def stats(self) -> Dict[str, Any]:
        """Counters for the engine's stats export (JSON-safe)."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "capacity_evictions": self.capacity_evictions,
            "hit_rate": self.hit_rate,
        }

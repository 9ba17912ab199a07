"""Regression tests: the engine's result cache vs published epochs.

The bug: the engine's LRU cache keyed entries by ``(rect, keywords)`` only,
so an engine serving a changing corpus kept returning the pre-write result
after an insert or delete published a new epoch.  A corpus that takes
writes is served by a one-shard :class:`~repro.service.ShardedQueryEngine`,
whose cache keys every entry by ``(epoch_id, rect, keywords)``; a static
:class:`~repro.service.QueryEngine` never changes, so its key has no epoch.
"""

import pytest

from repro.errors import ValidationError
from repro.dataset import Dataset, make_objects
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine, ShardedQueryEngine

RECT = Rect((0.0, 0.0), (10.0, 10.0))


def build_dynamic_engine(**kwargs):
    return ShardedQueryEngine(Dataset.empty(2), shards=1, max_k=2, **kwargs)


class TestDynamicEngineCache:
    def test_insert_invalidates_cached_result(self):
        # The pinned regression: query, write, repeat the query.  Before the
        # epoch-keyed cache the repeat served the stale cached empty result.
        engine = build_dynamic_engine(cache_size=8)
        assert engine.query(RECT, [1, 2]) == ()
        engine.insert((5.0, 5.0), {1, 2})
        results = engine.query(RECT, [1, 2])
        assert [obj.point for obj in results] == [(5.0, 5.0)]
        assert engine.last_record.cache == "miss"

    def test_same_epoch_repeat_is_a_hit(self):
        engine = build_dynamic_engine(cache_size=8)
        engine.insert((5.0, 5.0), {1, 2})
        first = engine.query(RECT, [1, 2])
        again = engine.query(RECT, [1, 2])
        assert again == first
        assert engine.last_record.cache == "hit"
        assert engine.last_record.strategy == "cache"

    def test_delete_invalidates_cached_result(self):
        engine = build_dynamic_engine(cache_size=8)
        oid = engine.insert((5.0, 5.0), {1, 2})
        engine.insert((20.0, 20.0), {1, 2})  # outside RECT; keeps the index non-empty
        assert len(engine.query(RECT, [1, 2])) == 1
        engine.delete(oid)
        assert engine.query(RECT, [1, 2]) == ()
        assert engine.last_record.cache == "miss"

    def test_static_engine_cache_still_hits(self):
        # A static engine never publishes an epoch — the fix must not cost
        # it its hits.
        dataset = Dataset(make_objects([(1.0, 1.0), (2.0, 2.0)], [[1, 2], [1]]))
        engine = QueryEngine(dataset, max_k=2, cache_size=8)
        first = engine.query(RECT, [1, 2])
        assert engine.query(RECT, [1, 2]) == first
        assert engine.last_record.cache == "hit"

    def test_dimension_validated_against_dynamic(self):
        engine = build_dynamic_engine()
        with pytest.raises(ValidationError):
            engine.query(Rect((0.0,), (1.0,)), [1, 2])

"""The fan-out's span tree accounts for every unit a shard slice charges.

A shard slice charges the shard engine's strategies, then the scan of the
map's delta buffer and the tombstone filter.  All three must land under the
slice's ``shard-<id>`` span, so the trace's leaves sum to the merged cost.
"""

from repro.geometry.rectangles import Rect
from repro.service import ShardedQueryEngine
from repro.trace import TraceSpan

from helpers import random_dataset


def test_delta_scan_and_tombstone_filter_land_in_the_trace(rng):
    dataset = random_dataset(rng, 200)
    engine = ShardedQueryEngine(dataset, shards=3, cache_size=0, tracing=True)
    for _ in range(20):
        engine.insert((rng.uniform(0, 10), rng.uniform(0, 10)), [1, 2])
    engine.delete(dataset.objects[0].oid)
    engine.query(Rect.full(2), [1, 2], budget=300)
    record = engine.last_record
    root = TraceSpan.from_dict(record.trace)
    leaf = root.leaf_costs()
    for category, units in record.cost.items():
        if category != "total":
            assert leaf.get(category, 0) == units, category
    assert sum(leaf.values()) == record.cost["total"]
    names = {
        child.name for shard in root.children for child in shard.children
    }
    assert {"delta-scan", "tombstone-filter"} <= names

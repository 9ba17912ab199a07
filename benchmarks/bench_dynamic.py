"""Experiment D1 — dynamization overhead (extension; logarithmic method).

The Bentley–Saxe wrapper multiplies the static query bound by the O(log n)
live buckets and costs amortized O(log n) rebuild participations per
insertion.  Measured here: query overhead factor vs the equivalent static
index, and the amortized insertion cost in objects-rebuilt per insertion.
"""

import math
import random

from repro.core.dynamize import (
    DynamicKeywordsOnly,
    DynamicLcKw,
    DynamicMultiKOrp,
    DynamicOrpKw,
    DynamicSrpKw,
)
from repro.core.orp_kw import OrpKwIndex
from repro.costmodel import CostCounter
from repro.dataset import Dataset
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.rectangles import Rect

from common import summarize_sweep


def _rows():
    rows = []
    rng = random.Random(21)
    for num in (1000, 2000, 4000):
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(num)]
        docs = [
            frozenset(rng.sample(range(1, 17), rng.randint(1, 4)))
            for _ in range(num)
        ]
        dynamic = DynamicOrpKw(k=2, dim=2)
        for point, doc in zip(points, docs):
            dynamic.insert(point, doc)
        static = OrpKwIndex(Dataset.from_points(points, docs), k=2)

        rect = Rect((0.25, 0.25), (0.75, 0.75))
        c_dyn, c_static = CostCounter(), CostCounter()
        out_dyn = dynamic.query(rect, [1, 2], counter=c_dyn)
        out_static = static.query(rect, [1, 2], counter=c_static)
        assert len(out_dyn) == len(out_static)
        rows.append(
            {
                "n": num,
                "OUT": len(out_dyn),
                "dynamic_cost": c_dyn.total,
                "static_cost": c_static.total,
                "overhead": round(c_dyn.total / max(c_static.total, 1), 2),
                "log2(n)": round(math.log2(num), 1),
                "live_buckets": sum(1 for s in dynamic.bucket_sizes if s),
            }
        )
    return rows


def test_d1_dynamization_overhead(benchmark):
    rows = _rows()
    summarize_sweep(
        "d1_dynamic",
        rows,
        ["n", "OUT", "dynamic_cost", "static_cost", "overhead", "log2(n)", "live_buckets"],
        "D1 logarithmic-method dynamization: query overhead vs static",
    )
    for row in rows:
        # The overhead must stay within the O(log n) envelope.
        assert row["overhead"] <= row["log2(n)"] + 1, row
        assert row["live_buckets"] <= row["log2(n)"] + 1

    rng = random.Random(3)
    dynamic = DynamicOrpKw(k=2, dim=2)
    for _ in range(2000):
        dynamic.insert(
            (rng.uniform(0, 1), rng.uniform(0, 1)),
            frozenset(rng.sample(range(1, 17), 3)),
        )
    rect = Rect((0.25, 0.25), (0.75, 0.75))
    benchmark(lambda: dynamic.query(rect, [1, 2]))


# -- D2: the whole dynamized Table-1 family under one churn workload ----------

RECT = Rect((0.25, 0.25), (0.75, 0.75))
CONSTRAINTS = (HalfSpace((1.0, 0.0), 0.75), HalfSpace((0.0, 1.0), 0.75))

#: (family, constructor, query thunk, churn size).  The partition-tree
#: families (LC/SRP) rebuild sub-indexes from scratch on every carry merge,
#: so their churn sizes stay small; the inverted-index families take the
#: larger workload.
FAMILIES = (
    ("orp_kw", lambda: DynamicOrpKw(k=2, dim=2),
     lambda ix, c: ix.query(RECT, [1, 2], counter=c), 512),
    ("keywords_only", lambda: DynamicKeywordsOnly(dim=2),
     lambda ix, c: ix.query(RECT, [1, 2], counter=c), 512),
    ("multi_k_orp", lambda: DynamicMultiKOrp(dim=2, max_k=3),
     lambda ix, c: ix.query(RECT, [1, 2], counter=c), 512),
    ("lc_kw", lambda: DynamicLcKw(k=2, dim=2),
     lambda ix, c: ix.query(CONSTRAINTS, [1, 2], counter=c), 128),
    ("srp_kw", lambda: DynamicSrpKw(k=2, dim=2),
     lambda ix, c: ix.query((0.5, 0.5), 0.25, [1, 2], counter=c), 128),
)


def _churn(make_index, num, seed=29):
    """Seeded insert/delete mix (one delete per four inserts, warmed up)."""
    rng = random.Random(seed)
    index = make_index()
    live = []
    updates = 0
    for i in range(num):
        oid = index.insert(
            (rng.uniform(0, 1), rng.uniform(0, 1)),
            frozenset({1, 2} if i % 3 == 0 else rng.sample(range(3, 17), 3)),
        )
        live.append(oid)
        updates += 1
        if len(live) > 8 and i % 4 == 0:
            index.delete(live.pop(rng.randrange(len(live))))
            updates += 1
    return index, updates


def test_d2_dynamized_family_churn(benchmark):
    rows = []
    for name, make_index, run_query, num in FAMILIES:
        index, updates = _churn(make_index, num)
        counter = CostCounter()
        out = run_query(index, counter)
        snapshot = index.maintenance.snapshot()
        rows.append(
            {
                "family": name,
                "updates": updates,
                "live": len(index),
                "OUT": len(out),
                "query_cost": counter.total,
                "rebuilt/update": round(
                    snapshot["objects_examined"] / updates, 2
                ),
                "log2(n)": round(math.log2(len(index)), 1),
                "live_buckets": sum(1 for s in index.bucket_sizes if s),
            }
        )
    summarize_sweep(
        "d2_dynamized_families",
        rows,
        ["family", "updates", "live", "OUT", "query_cost",
         "rebuilt/update", "log2(n)", "live_buckets"],
        "D2 Bentley-Saxe across every dynamized Table-1 family",
    )
    for row in rows:
        # Amortized rebuild participations per update stay logarithmic, and
        # the ladder never holds more than ~log2(n) live levels.  The +2
        # absorbs delete-triggered half-dead rebuilds, which repack the full
        # live set on top of the insert carries.
        assert row["rebuilt/update"] <= row["log2(n)"] + 2, row
        assert row["live_buckets"] <= row["log2(n)"] + 1, row
        assert row["OUT"] > 0, row

    index, _ = _churn(lambda: DynamicOrpKw(k=2, dim=2), 512)
    benchmark(lambda: index.query(RECT, [1, 2]))

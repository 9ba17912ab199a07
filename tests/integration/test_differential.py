"""Differential testing: every applicable index answers every query alike.

One randomized harness, many seeds: build all rectangle-capable indexes on
the same dataset, fire the same queries, demand identical answers.  This is
the strongest cross-implementation check in the suite — a divergence in any
of seven independent code paths fails loudly.
"""

import random

import pytest

from repro.core.baselines import (
    KeywordsOnlyIndex,
    NaiveRectangleIndex,
    ScanAllNn,
    StructuredOnlyIndex,
    l2_distance_squared,
)
from repro.core.dynamize import DynamicOrpKw
from repro.core.lc_kw import LcKwIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.core.nn_l2 import L2NnIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.rr_kw import RrKwIndex
from repro.costmodel import CostCounter
from repro.dataset import Dataset, RectangleObject, make_objects
from repro.geometry.halfspaces import rect_to_halfspaces
from repro.geometry.rectangles import Rect
from repro.irtree import IrTree
from repro.service import QueryEngine, ShardedQueryEngine


def build_dataset(seed: int) -> Dataset:
    rng = random.Random(seed)
    count = rng.randint(40, 140)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(count)]
    docs = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(count)]
    return Dataset(make_objects(points, docs))


def build_integer_dataset(seed: int) -> Dataset:
    """Integer-coordinate variant (L2NN-KW requires the paper's [N]^d grid)."""
    rng = random.Random(seed)
    count = rng.randint(40, 120)
    seen = set()
    points = []
    while len(points) < count:
        p = (float(rng.randint(0, 30)), float(rng.randint(0, 30)))
        if p not in seen:
            seen.add(p)
            points.append(p)
    docs = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(count)]
    return Dataset(make_objects(points, docs))


def build_rectangles(seed: int):
    rng = random.Random(seed)
    count = rng.randint(30, 90)
    rects = []
    for oid in range(count):
        lo = tuple(rng.uniform(0, 10) for _ in range(2))
        hi = tuple(c + rng.uniform(0, 3) for c in lo)
        doc = frozenset(rng.sample(range(1, 9), rng.randint(1, 4)))
        rects.append(RectangleObject(oid=oid, lo=lo, hi=hi, doc=doc))
    return rects


def random_query(rng, num_words: int = 2):
    a, b = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
    c, d = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
    return Rect((a, c), (b, d)), rng.sample(range(1, 9), num_words)


@pytest.mark.parametrize("seed", range(6))
def test_all_rectangle_indexes_agree(seed):
    dataset = build_dataset(seed)
    rng = random.Random(seed + 1000)

    orp = OrpKwIndex(dataset, k=2)
    lc = LcKwIndex(dataset, k=2)
    multi = MultiKOrpIndex(dataset, max_k=2)
    irtree = IrTree(dataset)
    structured = StructuredOnlyIndex(dataset)
    keywords_only = KeywordsOnlyIndex(dataset)
    dynamic = DynamicOrpKw(k=2, dim=2)
    oid_map = dynamic.insert_many(
        [o.point for o in dataset.objects], [o.doc for o in dataset.objects]
    )
    back = {new: old for new, old in zip(oid_map, range(len(dataset)))}

    for _ in range(12):
        rect, words = random_query(rng)
        brute = sorted(
            o.oid
            for o in dataset
            if rect.contains_point(o.point) and o.contains_keywords(words)
        )
        answers = {
            "orp": sorted(o.oid for o in orp.query(rect, words)),
            "lc": sorted(
                o.oid
                for o in lc.query(list(rect_to_halfspaces(rect.lo, rect.hi)), words)
            ),
            "multi_k": sorted(o.oid for o in multi.query(rect, words)),
            "irtree": sorted(o.oid for o in irtree.query(rect, words)),
            "structured": sorted(
                o.oid for o in structured.query_rect(rect, words)
            ),
            "keywords": sorted(
                o.oid for o in keywords_only.query_rect(rect, words)
            ),
            "dynamic": sorted(back[o.oid] for o in dynamic.query(rect, words)),
        }
        for name, got in answers.items():
            assert got == brute, (seed, name, rect, words, got, brute)


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_sharded_engine_agrees_with_unsharded(shards):
    """The sharded fan-out is answer-equivalent to the monolithic engine.

    Across randomized rect/keyword workloads and budgets — including budgets
    small enough that every shard slice degrades — the sharded engine must
    return exactly the same result sets, its merged trace must account for
    every per-shard unit, and the caller's counter must see the same merged
    total.  For S = 1 sharding is the identity, so even the cost totals
    match the unsharded engine unit-for-unit.
    """
    for seed in range(3):
        dataset = build_dataset(seed)
        rng = random.Random(seed + 7000)
        base = QueryEngine(dataset, max_k=3, cache_size=0)
        sharded = ShardedQueryEngine(dataset, shards=shards, max_k=3, cache_size=0)
        saw_degraded_slice = False
        for _ in range(8):
            a, b = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
            c, d = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            # `shards` units: each shard gets a 1-unit share, forcing
            # per-shard degradation on every non-trivial slice.
            for budget in (None, 4096, shards):
                base_counter = CostCounter()
                merged_counter = CostCounter()
                want = sorted(
                    o.oid for o in base.query(rect, words, budget=budget,
                                              counter=base_counter)
                )
                got = sorted(
                    o.oid for o in sharded.query(rect, words, budget=budget,
                                                 counter=merged_counter)
                )
                assert got == want, (seed, shards, budget, rect, words)
                record = sharded.last_record
                # Merged cost trace: slice costs sum to the merged total,
                # and the caller's counter saw exactly that total.
                assert record.cost.get("total", 0) == sum(
                    s["cost"] for s in record.shards
                )
                assert merged_counter.total == record.cost.get("total", 0)
                saw_degraded_slice = saw_degraded_slice or any(
                    s["degraded"] for s in record.shards
                )
                if shards == 1 and budget is None:
                    # Identity sharding: same planner, same dataset order,
                    # same cost total as the unsharded engine.
                    assert merged_counter.total == base_counter.total
        assert saw_degraded_slice, (seed, shards)


@pytest.mark.parametrize("seed", range(4))
def test_ksi_indexes_agree(seed):
    rng = random.Random(seed)
    sets = [
        [e for e in range(60) if rng.random() < rng.uniform(0.05, 0.5)] or [0]
        for _ in range(7)
    ]
    from repro.ksi import BitsetKSI, KSetIndex, NaiveKSI
    from repro.ksi.ksi_index import OrpBackedKsi

    naive = NaiveKSI(sets)
    kset = KSetIndex(sets, k=2)
    bits = BitsetKSI(sets)
    backed = OrpBackedKsi(sets, k=2)
    for _ in range(15):
        ids = rng.sample(range(7), 2)
        expected = naive.report(ids)
        assert kset.report(ids) == expected
        assert bits.report(ids) == expected
        assert backed.report(ids) == expected


@pytest.mark.parametrize("seed", range(4))
def test_nn_indexes_agree_on_distances(seed):
    from repro.core.baselines import ScanAllNn, linf_distance
    from repro.core.nn_linf import LinfNnIndex

    dataset = build_dataset(seed + 50)
    rng = random.Random(seed + 99)
    nn = LinfNnIndex(dataset, k=2)
    scan = ScanAllNn(dataset)
    for _ in range(6):
        q = (rng.uniform(0, 10), rng.uniform(0, 10))
        t = rng.randint(1, 5)
        words = rng.sample(range(1, 9), 2)
        got = nn.query(q, t, words)
        want = scan.nearest(q, t, words, linf_distance)
        got_d = sorted(round(linf_distance(q, o.point), 9) for o in got)
        want_d = sorted(round(linf_distance(q, o.point), 9) for o in want)
        assert got_d == want_d, (seed, q, t, words)


@pytest.mark.parametrize("seed", range(5))
def test_rr_kw_agrees_with_naive_rectangle(seed):
    """RR-KW's corner-point reduction matches both naive rectangle scans."""
    rects = build_rectangles(seed)
    rng = random.Random(seed + 2000)
    index = RrKwIndex(rects, k=2)
    naive = NaiveRectangleIndex(rects)
    for _ in range(12):
        a, b = sorted([rng.uniform(-1, 12), rng.uniform(-1, 12)])
        c, d = sorted([rng.uniform(-1, 12), rng.uniform(-1, 12)])
        lo, hi = (a, c), (b, d)
        words = rng.sample(range(1, 9), 2)
        brute = sorted(
            r.oid
            for r in rects
            if r.intersects(lo, hi) and r.doc.issuperset(words)
        )
        got = sorted(r.oid for r in index.query(lo, hi, words))
        structured = sorted(r.oid for r in naive.query_structured(lo, hi, words))
        keywords = sorted(r.oid for r in naive.query_keywords(lo, hi, words))
        assert got == brute, (seed, lo, hi, words, got, brute)
        assert structured == brute and keywords == brute


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_multi_k_sweep_agrees_with_brute_force(seed, k):
    """MultiKOrpIndex routes every arity 1..max_k to the right sub-index."""
    dataset = build_dataset(seed + 300)
    rng = random.Random(seed + 3000)
    multi = MultiKOrpIndex(dataset, max_k=3)
    for _ in range(10):
        rect, words = random_query(rng, num_words=k)
        brute = sorted(
            o.oid
            for o in dataset
            if rect.contains_point(o.point) and o.contains_keywords(words)
        )
        got = sorted(o.oid for o in multi.query(rect, words))
        assert got == brute, (seed, k, rect, words, got, brute)


@pytest.mark.parametrize("seed", range(4))
def test_nn_l2_agrees_with_scan(seed):
    """L2NN-KW distance multiset matches the brute-force scan's."""
    dataset = build_integer_dataset(seed + 70)
    rng = random.Random(seed + 4000)
    nn = L2NnIndex(dataset, k=2)
    scan = ScanAllNn(dataset)
    for _ in range(6):
        q = (float(rng.randint(0, 30)), float(rng.randint(0, 30)))
        t = rng.randint(1, 5)
        words = rng.sample(range(1, 9), 2)
        got = nn.query(q, t, words)
        want = scan.nearest(q, t, words, l2_distance_squared)
        got_d = sorted(l2_distance_squared(q, o.point) for o in got)
        want_d = sorted(l2_distance_squared(q, o.point) for o in want)
        assert got_d == want_d, (seed, q, t, words)


@pytest.mark.parametrize("seed", range(4))
def test_dynamic_agrees_after_interleaved_insert_delete(seed):
    """DynamicOrpKw stays answer-equivalent through mixed insert/delete churn.

    Three rounds of interleaved mutations (including enough deletions to
    trigger the tombstone-compaction rebuild), with a full differential
    check against a brute-force scan of the surviving objects after each
    round.
    """
    rng = random.Random(seed + 5000)
    dynamic = DynamicOrpKw(k=2, dim=2)
    live = {}  # oid -> (point, doc)

    def mutate(inserts: int, deletes: int) -> None:
        for _ in range(inserts):
            point = (rng.uniform(0, 10), rng.uniform(0, 10))
            doc = rng.sample(range(1, 9), rng.randint(1, 4))
            oid = dynamic.insert(point, doc)
            live[oid] = (point, frozenset(doc))
        for _ in range(min(deletes, max(0, len(live) - 1))):
            victim = rng.choice(sorted(live))
            dynamic.delete(victim)
            del live[victim]

    mutate(inserts=50, deletes=10)
    for round_no in range(3):
        mutate(inserts=rng.randint(5, 20), deletes=rng.randint(5, 15))
        assert len(dynamic) == len(live)
        for _ in range(8):
            rect, words = random_query(rng)
            brute = sorted(
                oid
                for oid, (point, doc) in live.items()
                if rect.contains_point(point) and doc.issuperset(words)
            )
            got = sorted(o.oid for o in dynamic.query(rect, words))
            assert got == brute, (seed, round_no, rect, words, got, brute)

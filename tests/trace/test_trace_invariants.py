"""Property tests for the load-bearing trace invariant.

For every traced query, the span tree's leaf costs must sum *exactly* to the
CostCounter's per-category totals — no unit charged outside a span, none
double-counted by merges.  And because the tracer hook is a no-op when
disabled, a traced run must charge the identical RAM-model cost as an
untraced one.  Both properties are checked here for every index family and
for the serving layer (unsharded and S = 4 sharded), including a 200+-query
randomized acceptance sweep.
"""

import random

import pytest

from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.core.dim_reduction import DimReductionOrpKw
from repro.core.lc_kw import LcKwIndex
from repro.core.nn_l2 import L2NnIndex
from repro.core.nn_linf import LinfNnIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.planner import STRATEGIES, HybridPlanner
from repro.core.srp_kw import SrpKwIndex
from repro.core.transform import QueryStats
from repro.costmodel import CATEGORIES, CostCounter
from repro.dataset import Dataset, make_objects
from repro.geometry.halfspaces import rect_to_halfspaces
from repro.geometry.rectangles import Rect
from repro.ksi import BitsetKSI, KSetIndex, NaiveKSI
from repro.service import QueryEngine, ShardedQueryEngine
from repro.trace import TraceSpan, Tracer


def build_dataset(seed: int, integral: bool = False, dim: int = 2) -> Dataset:
    rng = random.Random(seed)
    count = rng.randint(40, 100)
    if integral:
        seen = set()
        points = []
        while len(points) < count:
            p = tuple(float(rng.randint(0, 25)) for _ in range(dim))
            if p not in seen:
                seen.add(p)
                points.append(p)
    else:
        points = [
            tuple(rng.uniform(0, 10) for _ in range(dim)) for _ in range(count)
        ]
    docs = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(count)]
    return Dataset(make_objects(points, docs))


def random_rect(rng) -> Rect:
    a, b = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
    c, d = sorted([rng.uniform(-1, 11), rng.uniform(-1, 11)])
    return Rect((a, c), (b, d))


def assert_leaf_sums_match(root: TraceSpan, counter: CostCounter) -> None:
    """The invariant: span-tree leaves account for every charged unit."""
    leaf = root.leaf_costs()
    for category in CATEGORIES:
        assert leaf.get(category, 0) == counter[category], (
            category,
            leaf,
            counter.snapshot(),
        )
    assert root.subtree_total() == counter.total


def traced_run(run) -> tuple:
    """Run ``run(counter)`` under a tracer; return (finished root, counter)."""
    counter = CostCounter()
    tracer = Tracer()
    counter.tracer = tracer
    run(counter)
    return tracer.finish(), counter


def family_runs(seed: int):
    """(name, run(counter)) for one random query on every index family."""
    rng = random.Random(seed)
    dataset = build_dataset(seed)
    int_dataset = build_dataset(seed + 1, integral=True)
    rect = random_rect(rng)
    words = rng.sample(range(1, 9), 2)
    q = (rng.uniform(0, 10), rng.uniform(0, 10))
    qi = (float(rng.randint(0, 25)), float(rng.randint(0, 25)))
    t = rng.randint(1, 4)
    halfspaces = list(rect_to_halfspaces(rect.lo, rect.hi))
    sets = [
        [e for e in range(40) if rng.random() < 0.3] or [0] for _ in range(6)
    ]
    ids = rng.sample(range(6), 2)

    orp = OrpKwIndex(dataset, k=2)
    lc = LcKwIndex(dataset, k=2)
    srp = SrpKwIndex(int_dataset, k=2)
    dim_red = DimReductionOrpKw(build_dataset(seed + 2, dim=3), k=2)
    rect3 = Rect(
        tuple(rng.uniform(-1, 4) for _ in range(3)),
        tuple(rng.uniform(6, 11) for _ in range(3)),
    )
    nn_l2 = L2NnIndex(int_dataset, k=2)
    nn_linf = LinfNnIndex(dataset, k=2)
    planner = HybridPlanner(dataset, k=2)
    kset = KSetIndex(sets, k=2)
    naive_ksi = NaiveKSI(sets)
    bitset = BitsetKSI(sets)

    return [
        ("orp_kw", lambda c: orp.query(rect, words, c)),
        ("lc_kw", lambda c: lc.query(halfspaces, words, c)),
        ("srp_kw", lambda c: srp.query_squared(qi, 9.0, words, c)),
        ("dim_reduction", lambda c: dim_red.query(rect3, words, c)),
        ("nn_l2", lambda c: nn_l2.query(qi, t, words, c)),
        ("nn_linf", lambda c: nn_linf.query(q, t, words, c)),
        ("planner", lambda c: planner.query(rect, words, c)),
        ("ksi_kset", lambda c: kset.report(ids, c)),
        ("ksi_naive", lambda c: naive_ksi.report(ids, c)),
        ("ksi_bitset", lambda c: bitset.report(ids, c)),
        # Footnote 4's emptiness probes record into the caller's tracer.
        ("orp_kw_empty", lambda c: orp.is_empty(rect, words, c)),
        ("lc_kw_empty", lambda c: lc.is_empty(halfspaces, words, c)),
        ("srp_kw_empty", lambda c: srp.is_empty(qi, 3.0, words, c)),
        ("dim_reduction_empty", lambda c: dim_red.is_empty(rect3, words, c)),
        ("ksi_kset_empty", lambda c: kset.is_empty(ids, c)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_leaf_sums_match_counter_for_every_family(seed):
    for name, run in family_runs(seed):
        root, counter = traced_run(run)
        assert counter.total > 0, name
        assert_leaf_sums_match(root, counter)


@pytest.mark.parametrize("seed", range(3))
def test_tracing_never_changes_charged_costs(seed):
    """A traced run and an untraced run charge identical per-category costs."""
    for name, run in family_runs(seed):
        _, traced = traced_run(run)
        plain = CostCounter()
        run(plain)
        assert traced.snapshot() == plain.snapshot(), name


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_planner_query_with_leaf_sums(strategy):
    dataset = build_dataset(11)
    planner = HybridPlanner(dataset, k=2)
    rng = random.Random(12)
    for _ in range(5):
        rect = random_rect(rng)
        words = rng.sample(range(1, 9), 2)
        root, counter = traced_run(
            lambda c: planner.query_with(strategy, rect, words, c)
        )
        assert_leaf_sums_match(root, counter)
        assert root.find(strategy, "planner") is not None


def test_span_depth_matches_index_recursion_depth():
    """``depth=ℓ`` spans mirror the kd-tree descent level-for-level."""
    dataset = build_dataset(21)
    orp = OrpKwIndex(dataset, k=2)
    rng = random.Random(22)
    for _ in range(6):
        rect = random_rect(rng)
        words = rng.sample(range(1, 9), 2)
        stats = QueryStats()
        counter = CostCounter()
        tracer = Tracer()
        counter.tracer = tracer
        orp.query(rect, words, counter, stats=stats)
        root = tracer.finish()
        span_levels = set()
        for span in root.walk():
            if span.name.startswith("depth=") and span.component == "orp_kw":
                span_levels.add(int(span.name.split("=", 1)[1]))
        assert span_levels == set(stats.visited_levels)
        # Nesting is strict: a depth=ℓ span's depth-children are exactly ℓ+1.
        for span in root.walk():
            if not span.name.startswith("depth="):
                continue
            level = int(span.name.split("=", 1)[1])
            for child in span.children:
                if child.name.startswith("depth="):
                    assert int(child.name.split("=", 1)[1]) == level + 1


@pytest.mark.parametrize("shards", [0, 4])
def test_acceptance_sweep_engine_leaf_sums_and_cost_parity(shards):
    """200+ seeded random queries: leaf-sum invariant + tracing cost parity.

    Runs the full serving path (unsharded, then S = 4 sharded) with tracing
    on, checks every query's span tree sums to its recorded cost, and
    replays the same query on a tracing-off twin engine to confirm the
    charged totals are bit-identical.
    """
    queries_checked = 0
    for seed in range(3):
        dataset = build_dataset(seed + 40)
        if shards:
            traced = ShardedQueryEngine(
                dataset, shards=shards, max_k=3, cache_size=0, tracing=True
            )
            plain = ShardedQueryEngine(
                dataset, shards=shards, max_k=3, cache_size=0
            )
        else:
            traced = QueryEngine(dataset, max_k=3, cache_size=0, tracing=True)
            plain = QueryEngine(dataset, max_k=3, cache_size=0)
        rng = random.Random(seed + 60)
        for _ in range(35):
            rect = random_rect(rng)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            budget = rng.choice([None, 4096, 64])
            counter = CostCounter()
            traced.query(rect, words, budget=budget, counter=counter)
            record = traced.last_record
            assert record.trace is not None
            root = TraceSpan.from_dict(record.trace)
            leaf = root.leaf_costs()
            for category in CATEGORIES:
                assert leaf.get(category, 0) == record.cost.get(category, 0)
            assert root.subtree_total() == record.cost.get("total", 0)
            assert counter.total == record.cost.get("total", 0)

            plain_counter = CostCounter()
            plain.query(rect, words, budget=budget, counter=plain_counter)
            assert plain.last_record.trace is None
            assert plain_counter.snapshot() == counter.snapshot()
            queries_checked += 1
    assert queries_checked >= 105  # 2 parametrizations -> 210 total


def test_sharded_trace_has_one_span_per_shard():
    dataset = build_dataset(77)
    engine = ShardedQueryEngine(
        dataset, shards=4, max_k=3, cache_size=0, tracing=True
    )
    engine.query(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2])
    root = TraceSpan.from_dict(engine.last_record.trace)
    shard_spans = [
        s.name for s in root.children if s.component == "sharding"
    ]
    assert shard_spans == [f"shard-{i}" for i in range(4)]


def test_engine_strategy_coverage_under_tracing():
    """Every strategy the engine picks appears as an engine-component span."""
    dataset = build_dataset(88)
    engine = QueryEngine(dataset, max_k=3, cache_size=0, tracing=True)
    rng = random.Random(89)
    seen = set()
    for _ in range(30):
        rect = random_rect(rng)
        words = rng.sample(range(1, 9), rng.randint(1, 3))
        engine.query(rect, words, budget=rng.choice([None, 2048, 32]))
        record = engine.last_record
        root = TraceSpan.from_dict(record.trace)
        chosen = record.strategy
        assert root.find(chosen, "engine") is not None, record.trace
        seen.add(chosen)
    assert len(seen) >= 2, seen


def test_baseline_runs_also_satisfy_invariant():
    """Even pure-scan baselines route charges through the span tree."""
    dataset = build_dataset(99)
    structured = StructuredOnlyIndex(dataset)
    keywords = KeywordsOnlyIndex(dataset)
    rng = random.Random(100)
    rect = random_rect(rng)
    words = rng.sample(range(1, 9), 2)
    for run in (
        lambda c: structured.query_rect(rect, words, c),
        lambda c: keywords.query_rect(rect, words, c),
    ):
        root, counter = traced_run(run)
        assert_leaf_sums_match(root, counter)

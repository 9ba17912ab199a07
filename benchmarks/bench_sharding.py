"""Experiment S2 — sharded fan-out serving: cost and degradation vs shards.

The S1 Zipf replay workload (hot query templates over a Zipf-keyword
dataset) is served through :class:`repro.service.ShardedQueryEngine` at
shard counts S = 1, 2, 4, 8 under a sweep of per-query budgets.  Measured
per (S, budget): total charged cost, fallbacks, queries with at least one
degraded slice, degraded slices, and the degradation *rate* (degraded
slices / total slices).  Two claims under test:

* **cost** — the fan-out runs only the shards whose bounding box meets the
  query rectangle (the rest are pruned at zero cost), and every shard that
  runs pays its own planner probes, so total cost depends on how many
  shards a window touches, while per-shard work (and therefore tail
  latency in a parallel deployment) shrinks;
* **degradation isolation** — under a tight budget a monolithic engine
  degrades whole queries; the sharded engine splits the budget exactly over
  the shards that run and degrades only the slices whose share ran out, and
  answers stay exact either way (asserted against brute force on a
  sample).  Pruned slices count in ``deg_rate_pct``'s denominator.

``python benchmarks/bench_sharding.py --quick`` runs a tiny configuration
(CI smoke: no results file is written); the committed
``benchmarks/results/s2_sharding.txt`` comes from the full run.
"""

import random
import sys

from repro.costmodel import CostCounter
from repro.service import ShardedQueryEngine

from bench_engine import _zipf_workload
from common import standard_dataset, summarize_sweep
from repro.bench.reporting import format_table

SHARD_COUNTS = (1, 2, 4, 8)
BUDGETS = (None, 2048, 512, 128, 32)


def _serve(engine, workload, budget):
    counter = CostCounter()
    start = len(engine.records)
    engine.batch(workload, budget=budget, counter=counter)
    traces = engine.records[start:]
    slices = [s for t in traces for s in t.shards]
    return {
        "cost": counter.total,
        "fallbacks": sum(len(t.fallbacks) for t in traces),
        "degraded_queries": sum(1 for t in traces if t.degraded),
        "degraded_slices": sum(1 for s in slices if s["degraded"]),
        "slices": len(slices),
    }


def _sweep_rows(num_objects=2000, num_queries=80, shard_counts=SHARD_COUNTS,
                budgets=BUDGETS):
    dataset = standard_dataset(num_objects)
    workload = _zipf_workload(dataset, num_queries, seed=23)
    brute = [
        sorted(
            o.oid
            for o in dataset
            if rect.contains_point(o.point) and o.contains_keywords(words)
        )
        for rect, words in workload[:10]
    ]
    rows = []
    for shards in shard_counts:
        for budget in budgets:
            engine = ShardedQueryEngine(
                dataset, shards=shards, max_k=3, cache_size=0
            )
            served = _serve(engine, workload, budget)
            # Exactness survives sharding at every budget.
            for (rect, words), want in zip(workload[:10], brute):
                got = sorted(
                    o.oid for o in engine.query(rect, words, budget=budget)
                )
                assert got == want, (shards, budget, words)
            rows.append(
                {
                    "shards": shards,
                    "budget": budget if budget is not None else "inf",
                    "cost": served["cost"],
                    "fallbacks": served["fallbacks"],
                    "deg_queries": served["degraded_queries"],
                    "deg_slices": served["degraded_slices"],
                    "deg_rate_pct": round(
                        100.0 * served["degraded_slices"] / max(served["slices"], 1), 1
                    ),
                }
            )
    return rows


_COLUMNS = [
    "shards", "budget", "cost", "fallbacks",
    "deg_queries", "deg_slices", "deg_rate_pct",
]
_TITLE = "S2: sharded fan-out — cost and degradation rate vs shard count (Zipf replay)"


def _rows():
    return _sweep_rows()


def run(quick: bool = False) -> None:
    if quick:
        rows = _sweep_rows(
            num_objects=300, num_queries=20, shard_counts=(1, 2, 4),
            budgets=(None, 64),
        )
        # CI smoke: print only; the committed results file comes from the
        # full run.
        print()
        print(format_table(rows, columns=_COLUMNS, title=_TITLE + " [quick]"))
        return
    summarize_sweep("s2_sharding", _rows(), columns=_COLUMNS, title=_TITLE)


def test_sharding_bench_smoke(benchmark):
    """Wall-clock sanity check: one fanned-out batch at S=4."""
    dataset = standard_dataset(1000)
    workload = _zipf_workload(dataset, 30)
    engine = ShardedQueryEngine(dataset, shards=4, max_k=3, cache_size=256)
    engine.batch(workload)  # warm the cache

    benchmark(lambda: engine.batch(workload))


def test_sharding_differential_sample():
    """Spot check inside the bench harness: sharded == brute force."""
    rng = random.Random(5)
    dataset = standard_dataset(500)
    engine = ShardedQueryEngine(dataset, shards=4, max_k=3, cache_size=0)
    for _ in range(5):
        side = rng.choice([0.2, 0.5])
        a, c = rng.uniform(0, 1 - side), rng.uniform(0, 1 - side)
        from repro.geometry.rectangles import Rect

        rect = Rect((a, c), (a + side, c + side))
        words = rng.sample(range(1, 25), 2)
        got = sorted(o.oid for o in engine.query(rect, words, budget=16))
        want = sorted(
            o.oid
            for o in dataset
            if rect.contains_point(o.point) and o.contains_keywords(words)
        )
        assert got == want


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])

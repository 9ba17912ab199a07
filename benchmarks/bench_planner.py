"""Experiment P1 — the hybrid planner's regret across query regimes.

The planner races the fused index under a budget set by the cheapest naive
estimate (see :mod:`repro.core.planner`).  Measured here: planned cost vs
the per-query optimum on three regimes — naive-friendly (tiny posting
lists), structure-friendly (sliver rectangles), and fused-friendly
(adversarial disjoint keywords) — plus a mixed workload's aggregate regret.

Next to the race runs the serving engine's strategy chain
(:class:`~repro.service.QueryEngine`, unbudgeted, no cache), which runs the
cheapest estimate first and never races: the two columns show what the
race buys over the chain.  Both are exact, so their answers must agree.
"""

import random

from repro.core.planner import STRATEGIES, HybridPlanner
from repro.costmodel import CostCounter
from repro.dataset import Dataset
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine
from repro.workloads.generators import WorkloadConfig, zipf_dataset

from common import summarize_sweep


def _strategy_cost(planner, strategy, rect, words):
    counter = CostCounter()
    planner.query_with(strategy, rect, words, counter=counter)
    return counter.total


def _race_and_chain(planner, chain, rect, words):
    """Serve one query by the race and by the engine's chain; the answers
    must agree.  Returns the race's cost and the chain's record."""
    counter = CostCounter()
    raced = planner.query(rect, words, counter=counter)
    chained = chain.query(rect, words)
    assert sorted(o.oid for o in chained) == sorted(o.oid for o in raced)
    return counter.total, chain.last_record


def _regime_rows():
    rng = random.Random(31)
    rows = []

    # fused-friendly: adversarial disjoint keywords.
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3000)]
    docs = [[1] if i % 2 == 0 else [2] for i in range(3000)]
    # naive-friendly: one singleton keyword.
    docs2 = [[1, 2] for _ in range(2999)] + [[1, 9]]
    # structure-friendly: sliver rectangle on uniform tags.
    docs3 = [[1, 2] for _ in range(3000)]

    cases = [
        ("fused-friendly", docs, Rect.full(2), [1, 2]),
        ("posting-friendly", docs2, Rect.full(2), [1, 9]),
        ("rect-friendly", docs3, Rect((5.0, 5.0), (5.01, 5.01)), [1, 2]),
    ]
    for name, regime_docs, rect, words in cases:
        dataset = Dataset.from_points(points, regime_docs)
        planner = HybridPlanner(dataset, k=2)
        chain = QueryEngine(dataset, max_k=2, cache_size=0)
        planned, record = _race_and_chain(planner, chain, rect, words)
        best = min(_strategy_cost(planner, s, rect, words) for s in STRATEGIES)
        rows.append(
            {
                "regime": name,
                "choice": planner.last_plan["choice"],
                "planned_cost": planned,
                "best_cost": best,
                "regret": round(planned / max(best, 1), 2),
                "chain_choice": record.strategy,
                "chain_cost": record.cost["total"],
                "chain_regret": round(record.cost["total"] / max(best, 1), 2),
            }
        )
    return rows


def _mixed_rows():
    rng = random.Random(77)
    config = WorkloadConfig(num_objects=3000, vocabulary=24, seed=7)
    dataset = zipf_dataset(config)
    planner = HybridPlanner(dataset, k=2)
    chain = QueryEngine(dataset, max_k=2, cache_size=0)
    total_planned, total_best, fused_picks = 0, 0, 0
    chain_total, chain_fused_picks = 0, 0
    queries = 25
    for _ in range(queries):
        side = rng.choice([0.05, 0.3, 0.8])
        a = rng.uniform(0, 1 - side)
        c = rng.uniform(0, 1 - side)
        rect = Rect((a, c), (a + side, c + side))
        words = rng.sample(range(1, 25), 2)
        planned, record = _race_and_chain(planner, chain, rect, words)
        total_planned += planned
        if planner.last_plan["choice"] == "fused":
            fused_picks += 1
        chain_total += record.cost["total"]
        if record.strategy == "fused":
            chain_fused_picks += 1
        total_best += min(
            _strategy_cost(planner, s, rect, words) for s in STRATEGIES
        )
    return [
        {
            "queries": queries,
            "planned_total": total_planned,
            "optimal_total": total_best,
            "aggregate_regret": round(total_planned / max(total_best, 1), 2),
            "fused_picks": fused_picks,
            "chain_total": chain_total,
            "chain_regret": round(chain_total / max(total_best, 1), 2),
            "chain_fused_picks": chain_fused_picks,
        }
    ]


def test_p1_planner_regret(benchmark):
    regime_rows = _regime_rows()
    summarize_sweep(
        "p1_regimes",
        regime_rows,
        [
            "regime", "choice", "planned_cost", "best_cost", "regret",
            "chain_choice", "chain_cost", "chain_regret",
        ],
        "P1 planner choice per regime (race: fused under a naive budget; "
        "chain: the engine's cheapest-estimate-first strategy chain)",
    )
    by_regime = {r["regime"]: r for r in regime_rows}
    assert by_regime["fused-friendly"]["choice"] == "fused"
    for row in regime_rows:
        assert row["regret"] <= 4.0, row

    mixed_rows = _mixed_rows()
    summarize_sweep(
        "p1_mixed",
        mixed_rows,
        [
            "queries", "planned_total", "optimal_total", "aggregate_regret",
            "fused_picks", "chain_total", "chain_regret", "chain_fused_picks",
        ],
        "P1 mixed workload: aggregate regret vs the per-query optimum "
        "(race, then the engine's chain)",
    )
    assert mixed_rows[0]["aggregate_regret"] <= 3.0

    rng = random.Random(1)
    config = WorkloadConfig(num_objects=2000, vocabulary=24, seed=7)
    planner = HybridPlanner(zipf_dataset(config), k=2)
    rect = Rect((0.2, 0.2), (0.8, 0.8))
    benchmark(lambda: planner.query(rect, [1, 2]))

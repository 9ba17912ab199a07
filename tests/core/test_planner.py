"""Unit tests for repro.core.planner."""

import random

import pytest

from repro.core.planner import SAMPLE_SIZE, STRATEGIES, HybridPlanner
from repro.costmodel import CostCounter
from repro.dataset import Dataset
from repro.errors import BudgetExceeded, ValidationError
from repro.geometry.rectangles import Rect

from helpers import random_dataset


class TestCorrectness:
    def test_all_strategies_exact(self, rng):
        ds = random_dataset(rng, 120)
        planner = HybridPlanner(ds, k=2)
        for _ in range(12):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), 2)
            brute = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert sorted(o.oid for o in planner.query(rect, words)) == brute
            for strategy in STRATEGIES:
                got = sorted(
                    o.oid for o in planner.query_with(strategy, rect, words)
                )
                assert got == brute, strategy

    def test_last_plan_recorded(self, rng):
        ds = random_dataset(rng, 60)
        planner = HybridPlanner(ds, k=2)
        planner.query(Rect.full(2), [1, 2])
        assert planner.last_plan is not None
        assert planner.last_plan["choice"] in STRATEGIES


class TestRouting:
    def test_fallback_prefers_short_posting_list(self, rng):
        # Keyword 9 appears once: the shortest-posting estimate is 1.
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(300)]
        docs = [[1, 2] for _ in range(299)] + [[1, 9]]
        ds = Dataset.from_points(points, docs)
        planner = HybridPlanner(ds, k=2)
        assert planner.choose(Rect.full(2), [1, 9]) == "keywords_only"

    def test_fallback_prefers_tiny_rectangle(self, rng):
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(300)]
        docs = [[1, 2] for _ in range(300)]
        ds = Dataset.from_points(points, docs)
        planner = HybridPlanner(ds, k=2)
        sliver = Rect((5.0, 5.0), (5.0001, 5.0001))
        assert planner.choose(sliver, [1, 2]) == "structured_only"

    def test_race_picks_fused_on_adversarial_data(self, rng):
        """Disjoint keywords: fused finishes in O(1) — well inside budget."""
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(800)]
        docs = [[1] if i % 2 == 0 else [2] for i in range(800)]
        ds = Dataset.from_points(points, docs)
        planner = HybridPlanner(ds, k=2)
        counter = CostCounter()
        out = planner.query(Rect.full(2), [1, 2], counter=counter)
        assert out == []
        assert planner.last_plan["choice"] == "fused"
        assert counter.total < 400  # far below the naive 400-800

    def test_planner_near_optimal_in_aggregate(self, rng):
        """Across a workload, planned cost stays within ~3x the per-query
        optimum (single queries can exceed it when the sample-based
        selectivity estimate misfires; the race bounds the damage)."""
        ds = random_dataset(rng, 400, vocabulary=12)
        planner = HybridPlanner(ds, k=2)
        total_planned = 0
        total_best = 0
        for _ in range(15):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 13), 2)
            counter = CostCounter()
            planner.query(rect, words, counter=counter)
            total_planned += counter.total
            total_best += min(
                _run_cost(planner, s, rect, words) for s in STRATEGIES
            )
        assert total_planned <= 3 * total_best + 96, (total_planned, total_best)

    def test_race_never_exceeds_fused_plus_fallback(self, rng):
        """The structural bound of the race, per query."""
        ds = random_dataset(rng, 300, vocabulary=10)
        planner = HybridPlanner(ds, k=2)
        for _ in range(10):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 11), 2)
            counter = CostCounter()
            planner.query(rect, words, counter=counter)
            fallback = planner.last_plan["fallback"]
            ceiling = (
                _run_cost(planner, "fused", rect, words)
                + _run_cost(planner, fallback, rect, words)
                + 64
            )
            assert counter.total <= ceiling

    def test_race_charges_the_fused_probe_once_when_the_caller_budget_runs_out(self, rng):
        """The fused probe finishes within the race's budget, and merging it
        exhausts the caller's own: BudgetExceeded propagates, and the caller
        holds the probe's units once, category by category."""
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(800)]
        docs = [[1, 3] if i % 2 == 0 else [2, 3] for i in range(800)]
        planner = HybridPlanner(Dataset.from_points(points, docs), k=2)
        rect, words = Rect((2.0, 2.0), (8.0, 8.0)), [1, 2]
        probe = CostCounter()
        planner.query_with("fused", rect, words, counter=probe)
        unbudgeted = CostCounter()
        planner.query(rect, words, counter=unbudgeted)
        assert planner.last_plan["choice"] == "fused"
        assert unbudgeted.snapshot() == probe.snapshot()
        assert len(probe.counts) >= 2 and probe.total >= 2
        caller = CostCounter(budget=probe.total // 2)
        with pytest.raises(BudgetExceeded):
            planner.query(rect, words, counter=caller)
        assert caller.snapshot() == probe.snapshot()


def _run_cost(planner, strategy, rect, words) -> int:
    counter = CostCounter()
    planner.query_with(strategy, rect, words, counter=counter)
    return counter.total


class TestValidation:
    def test_unknown_strategy(self, rng):
        planner = HybridPlanner(random_dataset(rng, 10), k=2)
        with pytest.raises(ValidationError):
            planner.query_with("oracle", Rect.full(2), [1, 2])

    def test_empty_keywords_rejected(self, rng):
        planner = HybridPlanner(random_dataset(rng, 10), k=2)
        for method in (planner.estimate, planner.choose, planner.query):
            with pytest.raises(ValidationError):
                method(Rect.full(2), [])

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rect_of_another_dimension_rejected(self, rng, dim):
        """A 1-D rectangle over a 2-D corpus used to be estimated on its one
        axis, and a 3-D one raised IndexError; both get the engines'
        ValidationError, on an empty corpus too."""
        rect = Rect((0.0,) * dim, (5.0,) * dim)
        for dataset in (random_dataset(rng, 300), Dataset.empty(2)):
            planner = HybridPlanner(dataset, k=2)
            for method in (planner.estimate, planner.strategies_by_cost, planner.choose):
                with pytest.raises(ValidationError) as excinfo:
                    method(rect, [1, 2])
                assert str(excinfo.value) == (
                    f"query rectangle is {dim}-dimensional, data is 2-dimensional"
                )


class TestEmptyDataset:
    """Regression: _selectivity divided by len(sample) == 0, so the planner
    crashed with ZeroDivisionError on an empty dataset."""

    def test_constructible_and_queryable(self):
        planner = HybridPlanner(Dataset.empty(2), k=2)
        rect = Rect((0.0, 0.0), (5.0, 5.0))
        assert planner.estimate(rect, [1, 2])["selectivity"] == 0.0
        counter = CostCounter()
        assert planner.query(rect, [1, 2], counter=counter) == []
        assert planner.last_plan["choice"] in STRATEGIES
        for strategy in STRATEGIES:
            assert planner.query_with(strategy, rect, [1, 2]) == []

    def test_empty_dataset_still_validates_keywords(self):
        planner = HybridPlanner(Dataset.empty(2), k=2)
        with pytest.raises(ValidationError):
            planner.query(Rect.full(2), [])

    def test_space_units_finite(self):
        assert HybridPlanner(Dataset.empty(2), k=2).space_units == 0


class TestSelectivity:
    """The estimate against a brute-force count over the sample's rows."""

    @staticmethod
    def _brute(sample, rect):
        hits = sum(
            1
            for point in sample
            if all(rect.lo[i] <= point[i] <= rect.hi[i] for i in range(len(point)))
        )
        return hits / len(sample)

    @pytest.mark.parametrize("count", [40, 600])
    def test_matches_brute_force_count(self, rng, count):
        ds = random_dataset(rng, count)
        planner = HybridPlanner(ds, k=2)
        m = min(SAMPLE_SIZE, count)
        sample = [tuple(row) for row in planner._sample.tolist()]
        assert sample == random.Random(0).sample([o.point for o in ds], m)
        rects = [Rect.full(2), Rect((20.0, 20.0), (30.0, 30.0))]
        for _ in range(60):
            # Corners on sample coordinates: points on the boundary count.
            p, q = rng.sample(sample, 2)
            rects.append(Rect([min(p[0], q[0]), min(p[1], q[1])],
                              [max(p[0], q[0]), max(p[1], q[1])]))
            rects.append(Rect(p, p))
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rects.append(Rect((a, -float("inf")), (b, q[1])))
        for rect in rects:
            assert planner._selectivity(rect) == self._brute(sample, rect)
            assert planner.estimate(rect, [1, 2])["selectivity"] == self._brute(
                sample, rect
            )

    def test_empty_dataset_estimates_zero(self):
        planner = HybridPlanner(Dataset.empty(3), k=2)
        assert planner._sample.shape == (0, 3)
        for rect in (Rect.full(3), Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))):
            assert planner._selectivity(rect) == 0.0


class TestStrategyOrdering:
    def test_strategies_by_cost_sorted(self, rng):
        ds = random_dataset(rng, 150)
        planner = HybridPlanner(ds, k=2)
        rect = Rect((2.0, 2.0), (8.0, 8.0))
        order, estimates = planner.strategies_by_cost(rect, [1, 2])
        assert sorted(order) == sorted(STRATEGIES)
        assert estimates == planner.estimate(rect, [1, 2])
        costs = [estimates[s] for s in order]
        assert costs == sorted(costs)

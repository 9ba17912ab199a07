"""Exhaustive small-budget properties of the fan-out budget split.

The fan-out prunes shards whose bounds miss the rectangle and fixes the
shares of the shards that run upfront with ``split_budget_exact``, before
any of them runs.  The split must conserve budget exactly: no unit lost,
no unit granted twice — the regression here is the old
``max(pool // left, 1)`` rule, which minted extra units once the pool ran
dry (B=2 over four shards granted 4 units).
"""

import pytest

from repro.costmodel import CostCounter
from repro.geometry.rectangles import Rect
from repro.service import ShardedQueryEngine
from repro.service.sharding import split_budget_exact
from repro.errors import ValidationError

from helpers import random_dataset

SHARD_COUNTS = (1, 2, 3, 4, 7)
BUDGETS = range(0, 61)


class TestSplitBudgetExact:
    @pytest.mark.parametrize("parts", SHARD_COUNTS)
    def test_sums_exactly_and_stays_balanced(self, parts):
        for budget in BUDGETS:
            shares = split_budget_exact(budget, parts)
            assert len(shares) == parts
            assert sum(shares) == budget
            assert max(shares) - min(shares) <= 1
            assert all(share >= 0 for share in shares)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValidationError):
            split_budget_exact(10, 0)


class TestEngineGrantAccounting:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_served_grants_conserve_budget(self, shards, rng):
        """On a real engine, the shards that run get split_budget_exact(B,
        active) in shard order — summing to exactly B — and pruned slices
        get budget 0 and cost 0."""
        dataset = random_dataset(rng, 120)
        engine = ShardedQueryEngine(dataset, shards=shards, cache_size=0)
        corners = (Rect((0.0, 0.0), (2.5, 2.5)), Rect((9.0, 9.0), (10.0, 10.0)))
        for rect in (Rect.full(2),) + corners:
            for budget in (1, 2, 3, 5, 8, 20, 100):
                counter = CostCounter()
                engine.query(rect, [1, 2], budget=budget, counter=counter)
                slices = engine.last_record.shards
                assert [s["shard_id"] for s in slices] == list(range(shards))
                active = [s for s in slices if s["strategy"] != "pruned"]
                expected = [
                    shard_id
                    for shard_id, bounds in enumerate(engine.shard_bounds)
                    if bounds is not None and rect.intersects(bounds)
                ]
                assert [s["shard_id"] for s in active] == expected
                if active:
                    shares = [s["budget"] for s in active]
                    assert shares == split_budget_exact(budget, len(active))
                    assert sum(shares) == budget
                for entry in slices:
                    if entry["strategy"] == "pruned":
                        assert entry["budget"] == 0 and entry["cost"] == 0
                assert counter.total == sum(s["cost"] for s in slices)

    def test_tiny_budget_still_exact_answers(self, rng):
        """Zero-grant shards degrade but never drop results."""
        dataset = random_dataset(rng, 100)
        engine = ShardedQueryEngine(dataset, shards=7, cache_size=0)
        unbudgeted = ShardedQueryEngine(dataset, shards=7, cache_size=0)
        for budget in (1, 2, 3):
            rect = Rect.full(2)
            words = [1, 2]
            assert engine.query(rect, words, budget=budget) == unbudgeted.query(
                rect, words
            )

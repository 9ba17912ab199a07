"""Caller budgets obey the ``default_budget`` rule: ``None`` or at least 1.

A per-call budget below 1 used to be taken as given.  Through the async
front end a negative budget reserved negative in-flight cost, so
``max_inflight_cost`` stopped bounding anything; through ``batch`` it
silently degraded every query.  Every budget a caller supplies now passes
one check (:func:`repro.service.engine.checked_budget`) before anything is
counted, cached or reserved.  Shard shares of 0 inside the fan-out stay
legal.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect
from repro.service import AsyncQueryEngine, QueryEngine, ShardedQueryEngine

from helpers import random_dataset

RECT = Rect((0.0, 0.0), (10.0, 10.0))
BAD_BUDGETS = (0, -1, -1000)


@pytest.fixture
def engines(rng):
    dataset = random_dataset(rng, 120)
    return {
        "plain": QueryEngine(dataset, max_k=2),
        "sharded": ShardedQueryEngine(dataset, shards=3, max_k=2),
    }


@pytest.mark.parametrize("kind", ["plain", "sharded"])
@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_query_rejects_budget_below_one(engines, kind, budget):
    engine = engines[kind]
    with pytest.raises(ValidationError, match="budget must be >= 1"):
        engine.query(RECT, [1, 2], budget=budget)
    # Rejected before the query was counted in: no id, no record, no tally.
    assert engine.stats()["queries"] == 0
    assert engine.records == []
    assert engine.metrics.snapshot()["counters"] == {}


@pytest.mark.parametrize("kind", ["plain", "sharded"])
def test_batch_rejects_budget_below_one(engines, kind):
    with pytest.raises(ValidationError):
        engines[kind].batch([(RECT, [1, 2])], budget=-1)


def test_zero_shard_shares_stay_legal(engines):
    """A budget of 1 over three shards grants two of them a share of 0;
    those slices degrade to the exact unbudgeted scan."""
    engine = engines["sharded"]
    budgeted = engine.query(Rect.full(2), [1, 2], budget=1)
    shares = sorted(entry["budget"] for entry in engine.last_record.shards)
    assert shares == [0, 0, 1]
    assert budgeted == engine.query(Rect.full(2), [1, 2])


@pytest.mark.parametrize("kind", ["plain", "sharded"])
def test_front_end_rejects_budget_before_admission(engines, kind):
    engine = engines[kind]
    front = AsyncQueryEngine(engine, max_inflight_cost=100)
    seen = []
    admit = front.admission.admit

    def spy(reservation):
        admit(reservation)
        seen.append(front.admission.inflight_cost)

    front.admission.admit = spy

    async def drive():
        for budget in BAD_BUDGETS:
            with pytest.raises(ValidationError):
                await front.query(RECT, [1, 2], budget=budget)
        # A fitting query still lands: nothing was left reserved.
        await front.query(RECT, [1, 2], budget=100)

    try:
        asyncio.run(drive())
    finally:
        front.close()
    assert seen == [100]  # only the valid query reserved anything
    assert front.admission.inflight_cost == 0
    assert front.admission.inflight_queries == 0
    counters = front.stats()["metrics"]["counters"]
    assert counters["admitted_total"] == 1
    assert "shed_total" not in counters
    assert [record.cache for record in engine.records] == ["miss"]


@pytest.fixture
def cli_files(tmp_path, rng):
    data = tmp_path / "data.jsonl"
    with open(data, "w") as handle:
        for _ in range(60):
            handle.write(json.dumps({
                "point": [rng.uniform(0, 10), rng.uniform(0, 10)],
                "doc": rng.sample(range(1, 7), rng.randint(1, 3)),
            }) + "\n")
    queries = tmp_path / "q.jsonl"
    with open(queries, "w") as handle:
        for _ in range(8):
            handle.write(json.dumps({"rect": [0, 0, 10, 10], "keywords": [1, 2]}) + "\n")
    index = tmp_path / "engine.bin"
    assert main(["build", str(data), str(index), "--kind", "engine", "--k", "2"]) == 0
    return index, queries


@pytest.mark.parametrize("command", ["serve", "batch"])
def test_cli_rejects_budget_below_one(cli_files, command, capsys):
    index, queries = cli_files
    capsys.readouterr()
    code = main([command, str(index), "--queries", str(queries), "--budget", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "budget must be >= 1" in captured.err
    assert captured.out == ""

"""Every serving tally is a view of the query records.

Four seeded runs keep every record, hit and evict the cache, and serve
under budgets that force fallbacks and degraded answers: a plain ``auto``
:class:`QueryEngine` whose queries resolve to both backends; a 3-shard
:class:`ShardedQueryEngine` with inserts inside and outside its build
bounds, deletes and one rebalance; and an :class:`AsyncQueryEngine` over
a sharded and over a plain engine, each with a tail sampler and an SLO
monitor that sheds.  From
``engine.records`` alone each test recomputes one family of tallies — the
counters the record sink updates, the cost and result-count histograms of
the OpenMetrics export, the ``stats()`` tallies, the shed counters, every
query event, the planner cells, the sampler's offers and the SLO windows —
and asserts it equals what the stack reports.
"""

import asyncio
import json
import random
from collections import Counter

import pytest

from repro.core.planner import STRATEGIES
from repro.costmodel import CATEGORIES
from repro.errors import BudgetExceeded
from repro.service import AsyncQueryEngine, QueryEngine, ShardedQueryEngine
from repro.telemetry import (
    EventLog,
    SLOMonitor,
    StatsCollector,
    TailSampler,
    render_openmetrics,
)
from repro.trace import MetricsRegistry
from repro.workloads import WorkloadConfig, random_rect, zipf_dataset

QUERIES = 60
CACHE_SIZE = 4
#: Unbudgeted, tight (fallbacks, degraded answers) and roomy budgets.
BUDGETS = (None, 6, 20, 60, 400)
#: The async run's budgets, as in the serving drill: the LOW ones always fit
#: the quartered in-flight capacity (200 >> 2 = 50), HIGH sheds under
#: pressure.
MAX_INFLIGHT = 200
BUDGETS_LOW, BUDGET_HIGH = (6, 40), 60
HISTOGRAMS = tuple(f"cost_{category}" for category in CATEGORIES) + (
    "cost_total",
    "result_count",
)
SINK_COUNTERS = (
    "cache_hits_total",
    "cache_misses_total",
    "fallbacks_total",
    "budget_exhausted_total",
    "degraded_total",
    "degraded_slices_total",
)


def _dataset(seed):
    return zipf_dataset(
        WorkloadConfig(num_objects=150, vocabulary=12, doc_max=4, seed=seed)
    )


def _pool(rng, size=12, keyword_counts=(2,)):
    """A small pool of queries, so the stream repeats and the cache hits."""
    return [
        (
            random_rect(rng, 2, side=rng.choice((0.3, 0.6))),
            rng.sample(range(1, 13), rng.choice(keyword_counts)),
        )
        for _ in range(size)
    ]


def _plain_run():
    rng = random.Random(1501)
    events = EventLog()
    engine = QueryEngine(
        _dataset(1500), max_k=2, cache_size=CACHE_SIZE, keep_records=QUERIES,
        events=events, backend="auto",
    )
    # One-keyword queries on the corpus's most frequent keyword reach
    # AUTO_MIN_CANDIDATES; every other query stays below it.
    pool = _pool(rng, keyword_counts=(1, 2))
    for _ in range(QUERIES):
        rect, keywords = rng.choice(pool)
        engine.query(rect, keywords, budget=rng.choice(BUDGETS))
    return {"engine": engine, "events": events, "front": None}


def _sharded_run():
    rng = random.Random(1511)
    events = EventLog()
    engine = ShardedQueryEngine(
        _dataset(1510), shards=3, max_k=2, cache_size=CACHE_SIZE,
        keep_records=QUERIES, events=events,
    )
    pool = _pool(rng)
    for index in range(QUERIES):
        # Every write empties the cache, so the last 12 queries write
        # nothing: they fill the cache and evict from it.
        writes = index < QUERIES - 12
        if writes and index % 6 == 0:  # inside the build bounds
            engine.insert((rng.random(), rng.random()), rng.sample(range(1, 13), 3))
        if writes and index % 6 == 3:  # outside them: the shard's bounds grow
            engine.insert((1.0 + rng.random(), rng.random()), rng.sample(range(1, 13), 3))
        if writes and index % 10 == 9:
            engine.delete(rng.choice(sorted(engine.epoch.live_oids())))
        if index == QUERIES // 2:
            engine.rebalance()
        rect, keywords = rng.choice(pool)
        if index % 4 == 0:
            rect = random_rect(rng, 2, side=0.8, extent=2.0)  # reaches the far inserts
        engine.query(rect, keywords, budget=rng.choice(BUDGETS))
    return {"engine": engine, "events": events, "front": None}


def _slo_monitor():
    return SLOMonitor(window=16, p99_cost_target=1)  # any real cost burns


def _front_run(seed, engine, events):
    rng = random.Random(seed)
    front = AsyncQueryEngine(
        engine,
        max_inflight_cost=MAX_INFLIGHT,
        max_workers=2,
        events=events,
        sampler=TailSampler(slowest_k=4),
        slo=_slo_monitor(),
    )
    pool = _pool(rng)

    async def drive():
        for index in range(QUERIES):
            rect, keywords = rng.choice(pool)
            budget = rng.choice(BUDGETS_LOW) if index % 2 == 0 else BUDGET_HIGH
            try:
                await front.query(rect, keywords, budget=budget)
            except BudgetExceeded:
                pass

    try:
        asyncio.run(drive())
    finally:
        front.close()
    return {"engine": engine, "events": events, "front": front}


def _async_run():
    events = EventLog()
    engine = ShardedQueryEngine(
        _dataset(1520), shards=3, max_k=2, cache_size=CACHE_SIZE,
        keep_records=QUERIES, events=events,
    )
    return _front_run(1521, engine, events)


def _async_plain_run():
    """The front end over a plain engine: it opens, finishes and records on
    its event loop and executes on its pool."""
    events = EventLog()
    engine = QueryEngine(
        _dataset(1530), max_k=2, cache_size=CACHE_SIZE, keep_records=QUERIES,
        events=events,
    )
    return _front_run(1531, engine, events)


RUNS = {
    "plain": _plain_run,
    "sharded": _sharded_run,
    "async": _async_run,
    "async_plain": _async_plain_run,
}
ASYNC_RUNS = ["async", "async_plain"]


@pytest.fixture(scope="module")
def runs():
    return {name: dict(build(), name=name) for name, build in RUNS.items()}


@pytest.fixture(params=sorted(RUNS))
def run(request, runs):
    return runs[request.param]


def _served(engine):
    return [record for record in engine.records if record.strategy != "shed"]


def _misses(engine):
    return [record for record in _served(engine) if record.cache == "miss"]


def _degraded_slices(record):
    return sum(1 for entry in record.shards if entry["degraded"])


def _planned(record):
    """The (strategy, backend) of each planned execution of a miss: the
    record's own, or each shard slice's that the planner ran."""
    entries = record.shards or [record.to_dict()]
    return [
        (entry["strategy"], entry["backend"])
        for entry in entries
        if entry["strategy"] in STRATEGIES
    ]


def test_runs_exercise_every_outcome(run):
    """The views only mean something if every outcome occurred."""
    engine, events = run["engine"], run["events"]
    records = _served(engine)
    assert len(engine.records) == QUERIES  # one record per query, none dropped
    assert engine.stats()["queries"] == len(records)
    assert any(record.cache == "hit" for record in records)
    assert events.events("cache_evict")
    misses = _misses(engine)
    assert any(record.fallbacks for record in misses)
    assert any(record.degraded for record in misses)
    if isinstance(engine, ShardedQueryEngine):
        assert any(_degraded_slices(record) for record in misses)
    if run["name"] == "sharded":
        assert engine.stats()["shards"]["rebalances"] == 1
    if run["front"] is not None:
        assert any(record.strategy == "shed" for record in engine.records)
    if engine.backend == "auto":
        backends = {backend for record in misses for _, backend in _planned(record)}
        assert backends == {"cost_model", "vectorized"}


def test_sink_counters_are_record_views(run):
    engine = run["engine"]
    records = _served(engine)
    expected = Counter(f"strategy_{record.strategy}_total" for record in records)
    expected["queries_total"] = len(records)
    for record in records:
        if record.cache == "hit":
            expected["cache_hits_total"] += 1
            continue
        expected["cache_misses_total"] += 1
        expected["fallbacks_total"] += len(record.fallbacks)
        expected["budget_exhausted_total"] += bool(record.fallbacks)
        expected["degraded_total"] += record.degraded
        expected["degraded_slices_total"] += _degraded_slices(record)
        for _strategy, backend in _planned(record):
            expected[f"backend_{backend}_total"] += 1
    counters = engine.metrics.snapshot()["counters"]
    names = (
        set(expected)
        | set(SINK_COUNTERS)
        | {name for name in counters if name.startswith(("strategy_", "backend_"))}
    )
    assert {name: counters.get(name, 0) for name in names} == {
        name: expected[name] for name in names
    }


def test_exported_histograms_are_record_views(run):
    engine = run["engine"]
    rebuilt = MetricsRegistry()
    for record in _misses(engine):
        for category in CATEGORIES:
            rebuilt.histogram(f"cost_{category}").observe(record.cost.get(category, 0))
        rebuilt.histogram("cost_total").observe(record.cost["total"])
        rebuilt.histogram("result_count").observe(record.result_count)

    def exported(registry):
        histograms = registry.snapshot()["histograms"]
        return render_openmetrics(
            {
                "counters": {},
                "gauges": {},
                "histograms": {name: histograms[name] for name in HISTOGRAMS},
            }
        )

    assert exported(engine.metrics) == exported(rebuilt)


def test_stats_tallies_are_record_views(run):
    engine = run["engine"]
    records = _served(engine)
    stats = engine.stats()
    assert stats["strategies"] == dict(Counter(record.strategy for record in records))
    assert stats["fallbacks"] == sum(len(record.fallbacks) for record in records)
    assert stats["degraded"] == sum(record.degraded for record in records)
    if isinstance(engine, ShardedQueryEngine):
        assert stats["degraded_slices"] == sum(
            _degraded_slices(record) for record in records
        )


def test_shed_tallies_are_record_views(runs):
    front, engine = runs["async"]["front"], runs["async"]["engine"]
    sheds = [record for record in engine.records if record.strategy == "shed"]
    counters = front.metrics.snapshot()["counters"]
    assert counters.get("shed_total", 0) == len(sheds)
    assert counters.get("shed_slo_total", 0) == sum(
        record.reason != "shed:admission" for record in sheds
    )
    assert front.stats()["shed"] == len(sheds)


@pytest.mark.parametrize("name", ASYNC_RUNS)
def test_sampler_and_slo_window_are_record_views(runs, name):
    """The sink offers every record, shed or served, to the attached sampler
    and feeds every one into the attached SLO monitor."""
    engine, front = runs[name]["engine"], runs[name]["front"]
    records = engine.records
    assert front.sampler.stats()["offered"] == len(records)
    sampler, slo = TailSampler(slowest_k=4), _slo_monitor()
    for record in records:
        sampler.offer(record)
        slo.observe_query(
            cost=record.cost.get("total", 0),
            budget_exhausted=bool(record.fallbacks),
            shed=record.strategy == "shed",
        )
    assert sampler.stats() == front.sampler.stats()
    assert [entry.to_dict() for entry in sampler.retained()] == [
        entry.to_dict() for entry in front.sampler.retained()
    ]
    assert slo.report() == front.slo.report()


@pytest.mark.parametrize("name", ASYNC_RUNS)
def test_front_end_and_engine_write_one_registry(runs, name):
    """Admission metering and the sink's shed counters land in the engine's
    get-or-create registry: one instrument per name, a deterministic
    snapshot, and an export that carries sheds and admissions."""
    engine, front = runs[name]["engine"], runs[name]["front"]
    registry = engine.metrics
    assert front.metrics is registry
    snapshot = registry.snapshot()
    names = registry.counter_names() + registry.histogram_names() + registry.gauge_names()
    assert len(names) == len(set(names))
    assert registry.counter("shed_total") is registry.counter("shed_total")
    assert json.dumps(snapshot, sort_keys=True) == json.dumps(
        registry.snapshot(), sort_keys=True
    )
    lines = render_openmetrics(registry).splitlines()
    sheds = sum(record.strategy == "shed" for record in engine.records)
    assert f"repro_shed_total {sheds}" in lines
    assert f"repro_admitted_total {len(_served(engine))}" in lines
    assert snapshot["gauges"]["inflight_cost"] == 0


def _expected_query_events(records):
    """The query events a record stream implies, in emission order."""
    for record in records:
        if record.strategy == "shed":
            yield "query_shed", {
                "reason": record.reason,
                "budget": record.budget,
                "keywords": len(record.keywords),
            }
            continue
        if record.cache == "miss" and record.degraded:
            fields = {
                "query_id": record.query_id,
                "strategy": record.strategy,
                "fallbacks": len(record.fallbacks),
                "budget": record.budget,
                "cost_total": record.cost["total"],
            }
            if record.shards:
                fields["degraded_slices"] = _degraded_slices(record)
            yield "query_degraded", fields
        yield "query_finish", {
            "query_id": record.query_id,
            "strategy": record.strategy,
            "cache": record.cache,
            "cost_total": record.cost.get("total", 0),
            "result_count": record.result_count,
            "degraded": record.degraded,
        }


def test_query_events_are_record_views(run):
    engine, events = run["engine"], run["events"]
    kinds = {"query_finish", "query_degraded", "query_shed"}
    logged = [(event.kind, event.fields) for event in events.events() if event.kind in kinds]
    assert events.dropped == 0
    assert logged == list(_expected_query_events(engine.records))


def test_plain_planner_stats_are_record_views(runs):
    engine = runs["plain"]["engine"]
    rebuilt = StatsCollector()
    for record in _misses(engine):
        rebuilt.observe(
            record.strategy, record.backend, record.cost["total"], record.result_count,
            corpus_size=len(engine.dataset),
        )
    assert engine.planner_stats() == rebuilt.planner_stats()


@pytest.mark.parametrize("name", ["async", "sharded"])
def test_merged_sharded_cell_is_a_record_view(runs, name):
    engine = runs[name]["engine"]
    rebuilt = StatsCollector()
    for record in _misses(engine):
        rebuilt.observe("sharded", record.backend, record.cost["total"], record.result_count)
    (expected,) = rebuilt.planner_stats()["strategies"]
    (cell,) = [
        cell for cell in engine.planner_stats()["strategies"] if cell["strategy"] == "sharded"
    ]
    assert cell["queries"] == expected["queries"]
    assert cell["cost"] == expected["cost"]
    assert cell["result_count"] == expected["result_count"]

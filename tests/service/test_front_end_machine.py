"""Stateful differential over the serving front ends.

A hypothesis state machine drives four pairs of twin engines through one
stream of queries, repeated queries, inserts, deletes, rebalances and
cache resizes: a plain :class:`QueryEngine`, and :class:`ShardedQueryEngine`
built with 1 and with 3 shards, and with 3 shards on the ``auto`` backend.
In each pair the first twin serves inline and the second serves through an
:class:`AsyncQueryEngine` on its worker pool.  After every query each
answer must equal a brute-force scan of its live set, and after every step
each pair's twins must hold identical records, each slice's resolved
backend included.  The 3-shard pairs on the scalar and on the ``auto``
backend are partners: they take the same rebalances, cache resizes and
overlapped writes, and after every query they hold identical answers and
records apart from the ``backend`` fields, so a vectorized slice must
charge what its scalar twin charges.  The plain pair takes no writes, so
its live set is the build corpus.  Writes run on the event-loop thread, some of them while a
pooled query's shard calls are on the pool: that query must answer from
the map it pinned.  Snapshots pinned on the sharded engines are held across
later writes and rebalances: each must keep answering from the live set it
pinned until it is released.

The draws are adversarial where the serving paths branch: inserts outside
the build bounds, on a shard's boundary coordinate, on top of a live point
and inside a rectangle already asked (so a cached answer would be stale);
zero-area rectangles on a live point; a keyword that no object has;
exactly ``max_k`` keywords; budgets from 1 (zero shares for most shards)
up, or none.
"""

import asyncio
from functools import partial

from hypothesis import HealthCheck, Phase
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dataset import KeywordObject
from repro.geometry.rectangles import Rect
from repro.service import (
    AsyncQueryEngine,
    QueryEngine,
    ShardedQueryEngine,
    SnapshotManager,
)
from repro.workloads import WorkloadConfig, zipf_dataset

from helpers import fuzz_settings

MAX_K = 3
VOCABULARY = 8
#: A keyword that no object, built or inserted, ever has.
ABSENT = VOCABULARY + 1
DATASET = zipf_dataset(
    WorkloadConfig(num_objects=40, vocabulary=VOCABULARY, doc_max=3, seed=1801)
)
BUILDS = {
    "plain": lambda: QueryEngine(DATASET, max_k=MAX_K, cache_size=4),
    "s1": lambda: ShardedQueryEngine(DATASET, shards=1, max_k=MAX_K, cache_size=4),
    "s3": lambda: ShardedQueryEngine(DATASET, shards=3, max_k=MAX_K, cache_size=4),
    "s3_auto": lambda: ShardedQueryEngine(
        DATASET, shards=3, max_k=MAX_K, cache_size=4, backend="auto"
    ),
}
SHARDED = ("s1", "s3", "s3_auto")
#: The pairs that differ in backend alone, driven as one.
PARTNERS = ("s3", "s3_auto")
#: The engine's ``auto`` threshold, restored on teardown.  No keyword of the
#: 40-object corpus reaches it, so each machine lowers it to 4 to make
#: ``auto`` resolve to both backends.
AUTO_MIN_CANDIDATES = QueryEngine.AUTO_MIN_CANDIDATES

unit = st.floats(0.0, 1.0, allow_nan=False)
wide = st.floats(-0.5, 1.5, allow_nan=False)
far = st.floats(1.5, 3.0, allow_nan=False) | st.floats(-2.0, -0.5, allow_nan=False)
words = st.lists(st.integers(1, VOCABULARY), min_size=1, max_size=MAX_K, unique=True)
keyword_sets = st.one_of(
    words,
    st.lists(st.integers(1, VOCABULARY), min_size=MAX_K, max_size=MAX_K, unique=True),
    words.map(lambda ws: [ABSENT] + ws[: MAX_K - 1]),
)
budgets = st.none() | st.integers(1, 400)
docs = st.lists(st.integers(1, VOCABULARY), min_size=1, max_size=3, unique=True)


def _box(xs, ys):
    return Rect((min(xs), min(ys)), (max(xs), max(ys)))


def _group(name):
    """The pairs a rebalance, resize or overlapped write drawn for ``name``
    applies to: both partners, or the pair alone."""
    return PARTNERS if name in PARTNERS else (name,)


def _but_backend(record):
    """A record's JSON view without its and its slices' ``backend``."""
    view = record.to_dict()
    del view["backend"]
    view["shards"] = [
        {key: value for key, value in entry.items() if key != "backend"}
        for entry in view["shards"]
    ]
    return view


class FrontEndMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        QueryEngine.AUTO_MIN_CANDIDATES = 4
        self.loop = asyncio.new_event_loop()
        #: name -> (inline twin, pooled twin, the pooled twin's front end)
        self.pairs = {}
        for name, build in BUILDS.items():
            pooled = build()
            self.pairs[name] = (build(), pooled, AsyncQueryEngine(pooled, max_workers=2))
        self.built = {obj.oid: obj for obj in DATASET.objects}
        self.live = dict(self.built)
        #: Every (rect, keywords, budget) asked so far, for repeats.
        self.asked = []
        #: Held pins: (manager, snapshot, the live set when it was pinned).
        self.pins = []

    def teardown(self):
        QueryEngine.AUTO_MIN_CANDIDATES = AUTO_MIN_CANDIDATES
        for _inline, _pooled, front in self.pairs.values():
            front.close()
        self.loop.close()

    def _sharded_engines(self):
        for name in SHARDED:
            inline, pooled, _front = self.pairs[name]
            yield inline
            yield pooled

    # -- draws -------------------------------------------------------------------

    def _rects(self):
        points = [obj.point for obj in self.live.values()] or [(0.5, 0.5)]
        live_point = st.sampled_from(points)
        return st.one_of(
            st.builds(_box, st.tuples(wide, wide), st.tuples(wide, wide)),
            live_point.map(lambda p: Rect(p, p)),  # zero area, on a point
            st.builds(  # zero width, through a point
                lambda p, ys: Rect((p[0], min(ys)), (p[0], max(ys))),
                live_point, st.tuples(wide, wide),
            ),
            st.just(Rect((-3.0, -3.0), (4.0, 4.0))),  # reaches every far insert
        )

    def _points(self):
        split = sorted(
            {
                coord
                for bounds in self.pairs["s3"][0].shard_bounds
                if bounds is not None
                for coord in bounds.lo + bounds.hi
            }
        ) or [0.5]
        live = [obj.point for obj in self.live.values()] or [(0.5, 0.5)]
        return st.one_of(
            st.tuples(unit, unit),  # inside the build bounds
            st.tuples(far, unit) | st.tuples(unit, far),  # outside them
            st.tuples(st.sampled_from(split), unit),  # on a shard boundary
            st.sampled_from(live),  # a duplicate point
        )

    # -- rules -------------------------------------------------------------------

    @rule(data=st.data(), keywords=keyword_sets, budget=budgets)
    def query(self, data, keywords, budget):
        rect = data.draw(self._rects(), label="rect")
        self.asked.append((rect, keywords, budget))
        self._serve(rect, keywords, budget)

    @precondition(lambda self: self.asked)
    @rule(data=st.data())
    def repeat_query(self, data):
        """Ask an earlier query again: a cache hit, unless a write, a
        rebalance or a resize since then must turn it into a miss."""
        self._serve(*data.draw(st.sampled_from(self.asked), label="query"))

    def _serve(self, rect, keywords, budget):
        answers = {}
        for name, (inline, pooled, front) in self.pairs.items():
            answer = answers[name] = inline.query(rect, keywords, budget=budget)
            pooled_answer = self.loop.run_until_complete(
                front.query(rect, keywords, budget=budget)
            )
            corpus = self.built if name == "plain" else self.live
            expected = sorted(
                oid
                for oid, obj in corpus.items()
                if rect.contains_point(obj.point) and set(keywords) <= obj.doc
            )
            assert sorted(obj.oid for obj in answer) == expected, name
            assert pooled_answer == answer, name
            assert pooled.last_record.to_dict() == inline.last_record.to_dict(), name
        self._partners_agree(answers)

    def _partners_agree(self, answers):
        scalar, auto = PARTNERS
        assert answers[scalar] == answers[auto]
        assert _but_backend(self.pairs[scalar][0].last_record) == _but_backend(
            self.pairs[auto][0].last_record
        )

    @rule(data=st.data(), doc=docs)
    def insert(self, data, doc):
        point = data.draw(self._points(), label="point")
        self._insert(point, doc)

    @precondition(lambda self: self.asked)
    @rule(data=st.data(), extra=docs)
    def insert_into_asked(self, data, extra):
        """Insert a match of an earlier query, so a cached answer to it
        would now be stale."""
        rect, keywords, _budget = data.draw(st.sampled_from(self.asked), label="query")
        point = data.draw(
            st.tuples(*(st.floats(lo, hi) for lo, hi in zip(rect.lo, rect.hi))),
            label="point",
        )
        self._insert(point, [w for w in keywords if w != ABSENT] + extra)

    def _insert(self, point, doc):
        (oid,) = {engine.insert(point, doc) for engine in self._sharded_engines()}
        self.live[oid] = KeywordObject(
            oid=oid, point=tuple(float(c) for c in point), doc=frozenset(doc)
        )

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        self._delete(data.draw(st.sampled_from(sorted(self.live)), label="oid"))

    def _delete(self, oid):
        for engine in self._sharded_engines():
            engine.delete(oid)
        del self.live[oid]

    @rule(data=st.data(), keywords=keyword_sets, budget=budgets, doc=docs)
    def write_during_pooled_query(self, data, keywords, budget, doc):
        """Open a pooled query, yield once so its shard calls are on the
        pool, then insert or delete on the loop thread: the query answers
        from the map it pinned, as its inline twin did before the write."""
        names = _group(data.draw(st.sampled_from(SHARDED), label="pair"))
        rect = data.draw(self._rects(), label="rect")
        if self.live and data.draw(st.booleans(), label="delete"):
            oid = data.draw(st.sampled_from(sorted(self.live)), label="oid")
            write = partial(self._delete, oid)
        else:
            write = partial(self._insert, data.draw(self._points(), label="point"), doc)
        self.asked.append((rect, keywords, budget))
        expected = sorted(
            oid
            for oid, obj in self.live.items()
            if rect.contains_point(obj.point) and set(keywords) <= obj.doc
        )
        answers = {
            name: self.pairs[name][0].query(rect, keywords, budget=budget)
            for name in names
        }

        async def overlap():
            pending = [
                asyncio.ensure_future(self.pairs[name][2].query(rect, keywords, budget=budget))
                for name in names
            ]
            await asyncio.sleep(0)
            write()
            return await asyncio.gather(*pending)

        pooled_answers = self.loop.run_until_complete(overlap())
        for name, pooled_answer in zip(names, pooled_answers):
            assert sorted(obj.oid for obj in answers[name]) == expected, name
            assert pooled_answer == answers[name], name
        if names == PARTNERS:
            self._partners_agree(answers)

    @rule(name=st.sampled_from(SHARDED), shards=st.integers(1, 4))
    def rebalance(self, name, shards):
        for member in _group(name):
            inline, pooled, _front = self.pairs[member]
            inline.rebalance(shards=shards)
            pooled.rebalance(shards=shards)

    @rule(data=st.data())
    def pin(self, data):
        engine = data.draw(st.sampled_from(list(self._sharded_engines())), label="engine")
        manager = SnapshotManager(engine)
        self.pins.append((manager, manager.pin(), dict(self.live)))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.pins) - 1), label="pin")
        manager, snapshot, _live = self.pins.pop(index)
        manager.release(snapshot)

    @rule(name=st.sampled_from(sorted(BUILDS)), capacity=st.integers(0, 6))
    def resize_cache(self, name, capacity):
        for member in _group(name):
            inline, pooled, _front = self.pairs[member]
            inline.cache.resize(capacity)
            pooled.cache.resize(capacity)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def twins_hold_identical_records(self):
        for name, (inline, pooled, _front) in self.pairs.items():
            assert [record.to_dict() for record in pooled.records] == [
                record.to_dict() for record in inline.records
            ], name

    @invariant()
    def partners_hold_identical_records_but_the_backend(self):
        scalar, auto = (self.pairs[name][0] for name in PARTNERS)
        assert [_but_backend(r) for r in auto.records] == [
            _but_backend(r) for r in scalar.records
        ]

    @invariant()
    def sharded_engines_hold_the_live_set(self):
        for engine in self._sharded_engines():
            assert engine.epoch.live_oids() == frozenset(self.live)

    @invariant()
    def pins_answer_from_the_live_set_they_pinned(self):
        for _manager, snapshot, live in self.pins:
            assert snapshot.live_oids() == frozenset(live)
            for rect, keywords, _budget in self.asked[-3:]:
                expected = sorted(
                    oid
                    for oid, obj in live.items()
                    if rect.contains_point(obj.point) and set(keywords) <= obj.doc
                )
                assert [obj.oid for obj in snapshot.query(rect, keywords)] == expected


# No shrink phase: the same derandomized examples run and fail, and a failure
# reports its steps as drawn within seconds, where shrinking 25-step examples
# that each rebuild fused indexes took minutes.  The long fuzz job runs the
# machine unseeded at ten times the examples and steps (``fuzz_settings``).
FrontEndMachine.TestCase.settings = fuzz_settings(
    derandomize=True,
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestFrontEndMachine = FrontEndMachine.TestCase

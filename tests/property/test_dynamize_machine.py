"""Stateful differential over the five ``Dynamized`` families.

A hypothesis state machine sends one stream of writes to all five
Table-1 ladders at once: inserts inside and outside the unit box and on
top of live points, batches (empty ones included), deletes (unknown and
already-deleted ids included) and compactions.  It pins and releases their
epochs along the way.  After every step each ladder's live set and length
equal the model's, its dead fraction stays below one half, and every held
pin answers the latest drawn query exactly as a brute-force scan of the
live set it pinned.  Every successful write publishes exactly one epoch on
every ladder; a refused delete and an empty batch publish none.

A query is a rectangle, asked of LC-KW as its four halfspaces, plus a ball
for SRP-KW.  Coordinates and radii lie on a grid of eighths, so closed
containment, the halfspace tests and squared distances are all exact, and
a point on a query's boundary is decided the same way by every index and
by the scan.  Rectangles may have zero width or zero area.
"""

import pytest
from hypothesis import HealthCheck, Phase
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.dynamize import (
    DynamicKeywordsOnly,
    DynamicLcKw,
    DynamicMultiKOrp,
    DynamicOrpKw,
    DynamicSrpKw,
)
from repro.errors import ValidationError
from repro.geometry.halfspaces import rect_to_halfspaces
from repro.geometry.rectangles import Rect

from helpers import fuzz_settings

VOCABULARY = 3
FAMILIES = {
    "orp_kw": lambda: DynamicOrpKw(k=2, dim=2),
    "keywords_only": lambda: DynamicKeywordsOnly(dim=2),
    "lc_kw": lambda: DynamicLcKw(k=2, dim=2),
    "srp_kw": lambda: DynamicSrpKw(k=2, dim=2),
    "multi_k_orp": lambda: DynamicMultiKOrp(dim=2, max_k=2),
}
#: How many pins may be held at once (each pin queries five epochs per step).
MAX_PINS = 3


def eighths(lo, hi):
    return st.integers(lo, hi).map(lambda i: i / 8)


unit = eighths(0, 8)
outside = eighths(9, 24) | eighths(-16, -1)
grid = eighths(-8, 16)
docs = st.lists(st.integers(1, VOCABULARY), min_size=1, max_size=VOCABULARY, unique=True)
pairs = st.lists(st.integers(1, VOCABULARY), min_size=2, max_size=2, unique=True)


def _box(xs, ys):
    return Rect((min(xs), min(ys)), (max(xs), max(ys)))


def ask(epoch, name, query):
    """One family's answer from ``epoch`` to a drawn query, as sorted ids."""
    rect, center, radius, words = query
    if name == "lc_kw":
        found = epoch.query(list(rect_to_halfspaces(rect.lo, rect.hi)), words)
    elif name == "srp_kw":
        found = epoch.query(center, radius, words)
    else:
        found = epoch.query(rect, words)
    return sorted(obj.oid for obj in found)


def scan(live, name, query):
    """The brute-force answer over ``live`` (oid -> (point, doc))."""
    rect, center, radius, words = query

    def inside(point):
        if name == "srp_kw":
            return sum((a - c) ** 2 for a, c in zip(point, center)) <= radius**2
        return rect.contains_point(point)

    return sorted(
        oid for oid, (point, doc) in live.items() if inside(point) and set(words) <= doc
    )


class DynamizeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.indexes = {name: build() for name, build in FAMILIES.items()}
        #: The model: oid -> (point, doc) of every live object.
        self.live = {}
        self.deleted = []
        self.next_oid = 0
        #: Held pins: (family -> pinned epoch, the live set when pinned).
        self.pins = []
        self.last_query = None

    # -- draws -------------------------------------------------------------------

    def _points(self):
        live = [point for point, _doc in self.live.values()] or [(0.5, 0.5)]
        return st.one_of(
            st.tuples(unit, unit),
            st.tuples(outside, unit) | st.tuples(unit, outside),
            st.sampled_from(live),
        )

    def _queries(self):
        live = [point for point, _doc in self.live.values()] or [(0.5, 0.5)]
        live_point = st.sampled_from(live)
        rects = st.one_of(
            st.builds(_box, st.tuples(grid, grid), st.tuples(grid, grid)),
            live_point.map(lambda p: Rect(p, p)),
            st.just(Rect((-3.0, -3.0), (3.0, 3.0))),
        )
        centers = st.tuples(grid, grid) | live_point
        return st.tuples(rects, centers, eighths(0, 16), pairs)

    # -- writes ------------------------------------------------------------------

    def _published_once(self, write):
        """Run ``write`` on every ladder; each must publish one epoch."""
        results = []
        for index in self.indexes.values():
            before = index.epoch.epoch_id
            results.append(write(index))
            assert index.epoch.epoch_id == before + 1
        return results

    def _refused(self, write):
        """``write`` must raise on every ladder and publish nothing."""
        for name, index in self.indexes.items():
            before = index.epoch
            with pytest.raises(ValidationError):
                write(index)
            assert index.epoch is before, name

    def _add(self, oids, points, batch_docs):
        assert oids == list(range(self.next_oid, self.next_oid + len(points)))
        for oid, point, doc in zip(oids, points, batch_docs):
            self.live[oid] = (tuple(point), frozenset(doc))
        self.next_oid += len(points)

    @rule(data=st.data(), doc=docs)
    def insert(self, data, doc):
        point = data.draw(self._points(), label="point")
        (oid,) = set(self._published_once(lambda index: index.insert(point, doc)))
        self._add([oid], [point], [doc])

    @rule(data=st.data(), batch=st.lists(docs, max_size=4))
    def insert_many(self, data, batch):
        points = [data.draw(self._points(), label="point") for _ in batch]
        if not batch:
            for index in self.indexes.values():
                before = index.epoch
                assert index.insert_many([], []) == []
                assert index.epoch is before
            return
        results = self._published_once(lambda index: index.insert_many(points, batch))
        assert all(oids == results[0] for oids in results)
        self._add(results[0], points, batch)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)), label="oid")
        self._published_once(lambda index: index.delete(oid))
        del self.live[oid]
        self.deleted.append(oid)

    @rule(data=st.data())
    def delete_refused(self, data):
        """An unknown id, or one already deleted (tombstoned, or purged by
        a compaction since), raises and publishes nothing."""
        unknown = st.integers(self.next_oid, self.next_oid + 3) | st.just(-1)
        choices = (unknown | st.sampled_from(self.deleted)) if self.deleted else unknown
        oid = data.draw(choices, label="oid")
        self._refused(lambda index: index.delete(oid))

    @rule()
    def compact(self):
        self._published_once(lambda index: index.compact())
        for index in self.indexes.values():
            assert not index.epoch.tombstones

    @precondition(lambda self: len(self.pins) < MAX_PINS)
    @rule()
    def pin(self):
        epochs = {name: index.epoch for name, index in self.indexes.items()}
        self.pins.append((epochs, dict(self.live)))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release(self, data):
        self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1), label="pin"))

    @rule(data=st.data())
    def query(self, data):
        self.last_query = query = data.draw(self._queries(), label="query")
        for name, index in self.indexes.items():
            assert ask(index, name, query) == scan(self.live, name, query), name

    # -- invariants --------------------------------------------------------------

    @invariant()
    def ladders_hold_the_live_set(self):
        for name, index in self.indexes.items():
            assert index.epoch.live_oids() == frozenset(self.live), name
            assert len(index) == len(self.live), name

    @invariant()
    def dead_fraction_stays_below_half(self):
        for name, index in self.indexes.items():
            dead = len(index.epoch.tombstones)
            assert not dead or 2 * dead < dead + len(self.live), name

    @invariant()
    def pins_answer_from_the_live_set_they_pinned(self):
        if self.last_query is None:
            return
        for epochs, live in self.pins:
            for name, epoch in epochs.items():
                assert epoch.live_oids() == frozenset(live), name
                assert ask(epoch, name, self.last_query) == scan(
                    live, name, self.last_query
                ), name


# No shrink phase: the same derandomized examples run and fail, and a failure
# reports its steps as drawn within seconds, where shrinking 25-step examples
# that each rebuild fused indexes took minutes.  The long fuzz job runs the
# machine unseeded at ten times the examples and steps (``fuzz_settings``).
DynamizeMachine.TestCase.settings = fuzz_settings(
    derandomize=True,
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestDynamizeMachine = DynamizeMachine.TestCase

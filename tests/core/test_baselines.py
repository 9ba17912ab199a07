"""Unit tests for repro.core.baselines (the §1 naive solutions)."""

import pytest

from repro.core.baselines import (
    KeywordsOnlyIndex,
    NaiveRectangleIndex,
    ScanAllNn,
    StructuredOnlyIndex,
    l2_distance_squared,
    linf_distance,
)
from repro.costmodel import CostCounter
from repro.dataset import RectangleObject
from repro.errors import ValidationError
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.rectangles import Rect
from repro.geometry.regions import ConvexRegion

from helpers import random_dataset


class TestDistances:
    def test_linf(self):
        assert linf_distance((0.0, 0.0), (3.0, -4.0)) == 4.0

    def test_l2_squared(self):
        assert l2_distance_squared((0.0, 0.0), (3.0, 4.0)) == 25.0


class TestStructuredOnly:
    def test_rect_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 80)
        baseline = StructuredOnlyIndex(ds)
        for _ in range(15):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in baseline.query_rect(rect, words))
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_constraints(self, rng):
        ds = random_dataset(rng, 60)
        baseline = StructuredOnlyIndex(ds)
        h = HalfSpace((1.0, 1.0), 10.0)
        words = rng.sample(range(1, 9), 2)
        got = sorted(o.oid for o in baseline.query_constraints([h], words))
        want = sorted(
            o.oid for o in ds if h.contains(o.point) and o.contains_keywords(words)
        )
        assert got == want

    def test_cost_tracks_geometric_candidates(self, rng):
        """Structured-only pays for every point in the rectangle even when
        no candidate has the keywords — the §1 drawback."""
        ds = random_dataset(rng, 200)
        baseline = StructuredOnlyIndex(ds)
        counter = CostCounter()
        out = baseline.query_rect(Rect.full(2), [98, 99], counter)
        assert out == []
        assert counter["objects_examined"] >= len(ds)


class TestRectDimension:
    @pytest.mark.parametrize("cls", [KeywordsOnlyIndex, StructuredOnlyIndex])
    def test_wrong_dimension_rejected(self, rng, cls):
        """The containment loops zip the axes, so a rectangle of another
        dimension is refused rather than tested on the shared axes."""
        baseline = cls(random_dataset(rng, 40))
        for rect in (Rect((0.0,), (5.0,)), Rect((0.0,) * 3, (5.0,) * 3)):
            with pytest.raises(ValidationError):
                baseline.query_rect(rect, [1, 2])


class TestKeywordsOnly:
    def test_rect_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 80)
        baseline = KeywordsOnlyIndex(ds)
        for _ in range(15):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in baseline.query_rect(rect, words))
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_region_variant(self, rng):
        ds = random_dataset(rng, 60)
        baseline = KeywordsOnlyIndex(ds)
        region = ConvexRegion([HalfSpace((1.0, -1.0), 2.0)])
        words = rng.sample(range(1, 9), 2)
        got = sorted(o.oid for o in baseline.query_region(region, words))
        want = sorted(
            o.oid
            for o in ds
            if region.contains_point(o.point) and o.contains_keywords(words)
        )
        assert got == want

    def test_cost_tracks_posting_list(self, rng):
        """Keywords-only pays for the whole shortest posting list even when
        the rectangle is empty — the other §1 drawback."""
        ds = random_dataset(rng, 200, vocabulary=3, doc_max=2)
        baseline = KeywordsOnlyIndex(ds)
        counter = CostCounter()
        empty_rect = Rect((50.0, 50.0), (51.0, 51.0))
        out = baseline.query_rect(empty_rect, [1, 2], counter)
        assert out == []
        assert counter["objects_examined"] > 0

    def test_nearest(self, rng):
        ds = random_dataset(rng, 60, vocabulary=5)
        baseline = KeywordsOnlyIndex(ds)
        q = (5.0, 5.0)
        words = rng.sample(range(1, 6), 2)
        got = baseline.nearest(q, 3, words, linf_distance)
        matches = sorted(
            (o for o in ds if o.contains_keywords(words)),
            key=lambda o: (linf_distance(q, o.point), o.oid),
        )
        assert [o.oid for o in got] == [o.oid for o in matches[:3]]


class TestScanAllNn:
    def test_matches_keywords_only(self, rng):
        ds = random_dataset(rng, 50, vocabulary=5)
        scan = ScanAllNn(ds)
        kw = KeywordsOnlyIndex(ds)
        q = (3.0, 7.0)
        words = rng.sample(range(1, 6), 2)
        a = [o.oid for o in scan.nearest(q, 4, words, linf_distance)]
        b = [o.oid for o in kw.nearest(q, 4, words, linf_distance)]
        assert a == b

    def test_cost_is_linear(self, rng):
        ds = random_dataset(rng, 120, vocabulary=5)
        scan = ScanAllNn(ds)
        counter = CostCounter()
        scan.nearest((0.0, 0.0), 1, [1, 2], linf_distance, counter=counter)
        assert counter["objects_examined"] == 120


class TestNaiveRectangleIndex:
    def test_both_variants_agree(self, rng):
        rects = []
        for i in range(60):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rects.append(
                RectangleObject(
                    oid=i,
                    lo=(a,),
                    hi=(b,),
                    doc=frozenset(rng.sample(range(1, 6), rng.randint(1, 3))),
                )
            )
        naive = NaiveRectangleIndex(rects)
        for _ in range(15):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            words = rng.sample(range(1, 6), 2)
            structured = sorted(r.oid for r in naive.query_structured((a,), (b,), words))
            keywords = sorted(r.oid for r in naive.query_keywords((a,), (b,), words))
            assert structured == keywords

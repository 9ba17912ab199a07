"""Unit tests for repro.core.lc_kw (Theorems 5 and 12)."""

import math

import pytest

from repro.core.lc_kw import LcKwIndex, SpKwIndex
from repro.costmodel import CostCounter
from repro.errors import GeometryError, ValidationError
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.simplex import Simplex
from repro.partitiontree import WillardScheme

from helpers import random_dataset


def random_halfspace(rng, dim=2):
    return HalfSpace(
        tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)), rng.uniform(-5.0, 15.0)
    )


class TestSpKw:
    def test_simplex_query_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 100)
        index = SpKwIndex(ds, k=2)
        for _ in range(15):
            verts = [(rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(3)]
            try:
                simplex = Simplex(verts)
            except GeometryError:
                continue
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in index.query_simplex(simplex, words))
            want = sorted(
                o.oid
                for o in ds
                if simplex.contains(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_k3(self, rng):
        ds = random_dataset(rng, 80)
        index = SpKwIndex(ds, k=3)
        simplex = Simplex([(0.0, 0.0), (12.0, 0.0), (0.0, 12.0)])
        words = rng.sample(range(1, 9), 3)
        got = sorted(o.oid for o in index.query_simplex(simplex, words))
        want = sorted(
            o.oid for o in ds if simplex.contains(o.point) and o.contains_keywords(words)
        )
        assert got == want

    def test_willard_scheme_variant(self, rng):
        ds = random_dataset(rng, 90)
        index = SpKwIndex(ds, k=2, scheme=WillardScheme())
        for _ in range(10):
            verts = [(rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(3)]
            try:
                simplex = Simplex(verts)
            except GeometryError:
                continue
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in index.query_simplex(simplex, words))
            want = sorted(
                o.oid
                for o in ds
                if simplex.contains(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_space_linear(self, rng):
        ds = random_dataset(rng, 500, vocabulary=30)
        index = SpKwIndex(ds, k=2)
        assert index.space_units <= 12 * index.input_size


class TestLcKw:
    def test_single_constraint(self, rng):
        ds = random_dataset(rng, 90)
        index = LcKwIndex(ds, k=2)
        for _ in range(12):
            h = random_halfspace(rng)
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in index.query([h], words))
            want = sorted(
                o.oid for o in ds if h.contains(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_multiple_constraints(self, rng):
        ds = random_dataset(rng, 90)
        index = LcKwIndex(ds, k=2)
        for _ in range(12):
            cons = [random_halfspace(rng) for _ in range(rng.randint(2, 3))]
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in index.query(cons, words))
            want = sorted(
                o.oid
                for o in ds
                if all(h.contains(o.point) for h in cons)
                and o.contains_keywords(words)
            )
            assert got == want

    def test_no_constraints_is_pure_keyword_search(self, rng):
        ds = random_dataset(rng, 60)
        index = LcKwIndex(ds, k=2)
        words = rng.sample(range(1, 9), 2)
        got = sorted(o.oid for o in index.query([], words))
        want = sorted(o.oid for o in ds.matching(words))
        assert got == want

    def test_infeasible_conjunction_reports_nothing(self, rng):
        ds = random_dataset(rng, 50)
        index = LcKwIndex(ds, k=2)
        cons = [HalfSpace((1.0, 0.0), 1.0), HalfSpace((-1.0, 0.0), -9.0)]
        assert index.query(cons, [1, 2]) == []

    def test_flat_region_reports_the_data_on_it(self, rng):
        """A feasible region without a full-dimensional simplex — a
        zero-width rectangle or a single point — still reports the data
        points on it (the decomposition alone would find none)."""
        from repro.dataset import Dataset, make_objects
        from repro.geometry.halfspaces import rect_to_halfspaces

        points = [(x / 4, y / 4) for x in range(5) for y in range(5)]
        ds = Dataset(make_objects(points, [[1, 2]] * len(points)))
        index = LcKwIndex(ds, k=2)
        for lo, hi in [
            ((0.5, 0.25), (0.5, 0.75)),  # zero width
            ((0.25, 1.0), (1.0, 1.0)),  # zero height, on the boundary
            ((0.75, 0.75), (0.75, 0.75)),  # one point
        ]:
            cons = list(rect_to_halfspaces(lo, hi))
            got = sorted(o.oid for o in index.query(cons, [1, 2]))
            want = sorted(o.oid for o in ds if all(h.contains(o.point) for h in cons))
            assert got == want and want, (lo, hi)
            assert not index.is_empty(cons, [1, 2])

    def test_no_duplicates_across_simplices(self, rng):
        """Objects on shared simplex facets must be reported once."""
        ds = random_dataset(rng, 80)
        index = LcKwIndex(ds, k=2)
        for _ in range(10):
            cons = [random_halfspace(rng) for _ in range(2)]
            words = rng.sample(range(1, 9), 2)
            found = [o.oid for o in index.query(cons, words)]
            assert len(found) == len(set(found))

    def test_3d_constraints(self, rng):
        ds = random_dataset(rng, 70, dim=3)
        index = LcKwIndex(ds, k=2)
        for _ in range(8):
            cons = [random_halfspace(rng, dim=3) for _ in range(rng.randint(1, 2))]
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in index.query(cons, words))
            want = sorted(
                o.oid
                for o in ds
                if all(h.contains(o.point) for h in cons)
                and o.contains_keywords(words)
            )
            assert got == want

    def test_dim_mismatch_rejected(self, rng):
        ds = random_dataset(rng, 20)
        index = LcKwIndex(ds, k=2)
        with pytest.raises(ValidationError):
            index.query([HalfSpace((1.0, 0.0, 0.0), 1.0)], [1, 2])

    def test_rect_as_four_constraints_matches_orp(self, rng):
        """§1.1: a d-rectangle is a conjunction of 2d linear constraints."""
        from repro.core.orp_kw import OrpKwIndex
        from repro.geometry.halfspaces import rect_to_halfspaces
        from repro.geometry.rectangles import Rect

        ds = random_dataset(rng, 80)
        lc = LcKwIndex(ds, k=2)
        orp = OrpKwIndex(ds, k=2)
        for _ in range(8):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), 2)
            via_lc = sorted(
                o.oid for o in lc.query(list(rect_to_halfspaces(rect.lo, rect.hi)), words)
            )
            via_orp = sorted(o.oid for o in orp.query(rect, words))
            assert via_lc == via_orp

    def test_empty_output_cost_sublinear(self, rng):
        from repro.dataset import Dataset

        n = 2000
        points = [(rng.random() * 10, rng.random() * 10) for _ in range(n)]
        docs = [[1] if i % 2 == 0 else [2] for i in range(n)]
        ds = Dataset.from_points(points, docs)
        index = LcKwIndex(ds, k=2)
        counter = CostCounter()
        out = index.query([HalfSpace((1.0, 1.0), 15.0)], [1, 2], counter=counter)
        assert out == []
        assert counter.total <= 8 * math.sqrt(index.input_size)

"""Unit tests for repro.geometry.rectangles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.geometry.rectangles import Rect


class TestConstruction:
    def test_basic(self):
        rect = Rect((0.0, 1.0), (2.0, 3.0))
        assert rect.dim == 2
        assert rect.interval(1) == (1.0, 3.0)

    def test_full_space(self):
        rect = Rect.full(3)
        assert rect.dim == 3
        assert not rect.is_bounded()
        assert rect.contains_point((1e18, -1e18, 0.0))

    def test_from_intervals(self):
        rect = Rect.from_intervals([(0.0, 1.0), (2.0, 3.0)])
        assert rect == Rect((0.0, 2.0), (1.0, 3.0))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Rect((1.0,), (0.0,))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValidationError):
            Rect((0.0, 0.0), (1.0,))

    def test_zero_dims_rejected(self):
        with pytest.raises(ValidationError):
            Rect((), ())

    def test_degenerate_allowed(self):
        rect = Rect((1.0,), (1.0,))
        assert rect.contains_point((1.0,))


class TestPredicates:
    def test_contains_is_closed(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        assert rect.contains_point((0.0, 1.0))
        assert rect.contains_point((0.5, 0.5))
        assert not rect.contains_point((1.0001, 0.5))

    def test_interior_is_open(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        assert rect.interior_contains((0.5, 0.5))
        assert not rect.interior_contains((0.0, 0.5))

    def test_boundary(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        assert rect.boundary_contains((0.0, 0.5))
        assert rect.boundary_contains((1.0, 1.0))
        assert not rect.boundary_contains((0.5, 0.5))
        assert not rect.boundary_contains((2.0, 0.5))

    def test_unbounded_sides_have_no_boundary(self):
        rect = Rect.full(2)
        assert not rect.boundary_contains((0.0, 0.0))

    def test_intersects_symmetric(self):
        a = Rect((0.0, 0.0), (2.0, 2.0))
        b = Rect((1.0, 1.0), (3.0, 3.0))
        c = Rect((5.0, 5.0), (6.0, 6.0))
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c) and not c.intersects(a)

    def test_touching_rectangles_intersect(self):
        a = Rect((0.0, 0.0), (1.0, 1.0))
        b = Rect((1.0, 0.0), (2.0, 1.0))
        assert a.intersects(b)

    def test_covers(self):
        outer = Rect((0.0, 0.0), (4.0, 4.0))
        inner = Rect((1.0, 1.0), (2.0, 2.0))
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)


class TestConstructions:
    def test_clip(self):
        a = Rect((0.0, 0.0), (2.0, 2.0))
        b = Rect((1.0, -1.0), (3.0, 1.0))
        assert a.clip(b) == Rect((1.0, 0.0), (2.0, 1.0))

    def test_clip_empty_raises(self):
        a = Rect((0.0,), (1.0,))
        b = Rect((2.0,), (3.0,))
        with pytest.raises(ValidationError):
            a.clip(b)

    def test_split_shares_boundary(self):
        rect = Rect((0.0, 0.0), (4.0, 4.0))
        left, right = rect.split(0, 1.5)
        assert left == Rect((0.0, 0.0), (1.5, 4.0))
        assert right == Rect((1.5, 0.0), (4.0, 4.0))
        # The halves share the splitting hyperplane (closed cells).
        assert left.contains_point((1.5, 2.0))
        assert right.contains_point((1.5, 2.0))

    def test_split_outside_extent_rejected(self):
        rect = Rect((0.0,), (1.0,))
        with pytest.raises(ValidationError):
            rect.split(0, 2.0)

    def test_vertices_of_square(self):
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        assert set(rect.vertices()) == {
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (1.0, 1.0),
        }

    def test_vertices_of_degenerate(self):
        rect = Rect((0.0, 1.0), (1.0, 1.0))
        assert set(rect.vertices()) == {(0.0, 1.0), (1.0, 1.0)}

    def test_vertices_of_unbounded_raises(self):
        with pytest.raises(ValidationError):
            Rect.full(2).vertices()

    def test_hash_and_eq(self):
        a = Rect((0.0,), (1.0,))
        b = Rect((0.0,), (1.0,))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect((0.0,), (2.0,))


# -- an independent reference for the closed predicates -------------------------

#: A coarse grid plus both infinities, so shared boundaries, zero-width
#: sides and unbounded sides are common draws.
GRID = (-math.inf, -1.0, -0.5, 0.0, 0.5, 1.0, math.inf)
grid_value = st.sampled_from(GRID)


def _ref_contains(rect, point):
    return all(rect.lo[i] <= point[i] <= rect.hi[i] for i in range(len(rect.lo)))


def _ref_intersects(a, b):
    return all(a.lo[i] <= b.hi[i] and b.lo[i] <= a.hi[i] for i in range(len(a.lo)))


def _ref_covers(a, b):
    return all(a.lo[i] <= b.lo[i] and b.hi[i] <= a.hi[i] for i in range(len(a.lo)))


def _grid_rect(draw, dim):
    sides = [sorted((draw(grid_value), draw(grid_value))) for _ in range(dim)]
    return Rect([low for low, _ in sides], [high for _, high in sides])


@st.composite
def grid_cases(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    points = draw(
        st.lists(st.tuples(*[grid_value] * dim), min_size=0, max_size=12)
    )
    return _grid_rect(draw, dim), _grid_rect(draw, dim), points


class TestPredicatesAgainstReference:
    """The predicates against the all-over-axes formulas written out above,
    so a fault in them cannot hide behind tests that use them as an
    oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid_cases())
    def test_scalar_predicates_match_reference(self, case):
        a, b, points = case
        assert a.intersects(b) == _ref_intersects(a, b)
        assert b.intersects(a) == _ref_intersects(b, a)
        assert a.covers(b) == _ref_covers(a, b)
        assert b.covers(a) == _ref_covers(b, a)
        for point in points:
            assert a.contains_point(point) == _ref_contains(a, point)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grid_cases())
    def test_block_mask_matches_reference_row_by_row(self, case):
        rect, _other, points = case
        block = np.array(points, dtype=np.float64).reshape(len(points), rect.dim)
        mask = rect.contains_points(block)
        assert mask.dtype == np.bool_ and mask.shape == (len(points),)
        assert mask.tolist() == [_ref_contains(rect, point) for point in points]

    def test_block_mask_on_shared_boundaries(self):
        rect = Rect((0.0, -math.inf), (0.0, 1.0))
        block = np.array(
            [(0.0, 1.0), (0.0, -1e300), (-0.0, 0.5), (1e-300, 0.0), (0.0, 1.0000001)]
        )
        assert rect.contains_points(block).tolist() == [True, True, True, False, False]

"""Closed axis-parallel d-rectangles.

A *d-rectangle* (paper footnote 1) is a product of closed intervals
``[x1, y1] x ... x [xd, yd]``.  Unbounded sides are represented with
``float('inf')`` / ``float('-inf')``; :meth:`Rect.full` builds the all-space
rectangle used as the root cell of the kd-tree.  Closed containment has a
scalar form for one point (:meth:`Rect.contains_point`) and a block form
for an ``(n, d)`` array (:meth:`Rect.contains_points`) that makes the same
comparisons.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from ..errors import ValidationError

_INF = math.inf


class Rect:
    """A closed, possibly unbounded, axis-parallel rectangle in R^d."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo_t = tuple(float(c) for c in lo)
        hi_t = tuple(float(c) for c in hi)
        if len(lo_t) != len(hi_t):
            raise ValidationError(
                f"rectangle corners have different dimensionalities "
                f"({len(lo_t)} vs {len(hi_t)})"
            )
        if not lo_t:
            raise ValidationError("rectangle must have at least one dimension")
        for low, high in zip(lo_t, hi_t):
            if math.isnan(low) or math.isnan(high):
                raise ValidationError("rectangle bounds must not be NaN")
            if low > high:
                raise ValidationError(f"empty rectangle: lower bound {low} > upper bound {high}")
        self.lo: Tuple[float, ...] = lo_t
        self.hi: Tuple[float, ...] = hi_t

    # -- constructors --------------------------------------------------------

    @classmethod
    def full(cls, dim: int) -> "Rect":
        """The all-space rectangle R^dim."""
        return cls((-_INF,) * dim, (_INF,) * dim)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Tuple[float, float]]) -> "Rect":
        """Build from a sequence of (lo, hi) pairs."""
        return cls([iv[0] for iv in intervals], [iv[1] for iv in intervals])

    # -- basic properties -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality d."""
        return len(self.lo)

    def require_dim(self, dim: int) -> None:
        """Refuse this rectangle as a query over ``dim``-dimensional data."""
        if self.dim != dim:
            raise ValidationError(
                f"query rectangle is {self.dim}-dimensional, data is {dim}-dimensional"
            )

    def interval(self, axis: int) -> Tuple[float, float]:
        """Projection onto ``axis`` (the paper's ``q[i]``)."""
        return (self.lo[axis], self.hi[axis])

    def is_bounded(self) -> bool:
        """Whether every side is finite."""
        return all(math.isfinite(c) for c in self.lo + self.hi)

    # -- predicates ----------------------------------------------------------

    def contains_point(self, point: Sequence[float]) -> bool:
        """Closed containment test.

        ``point`` must have the rectangle's dimension: the axes are zipped,
        so a shorter point would be tested on its own axes only.  The query
        entry points and inserts check dimensions before they get here.
        """
        for low, x, high in zip(self.lo, point, self.hi):
            if not low <= x <= high:
                return False
        return True

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Closed containment mask over an ``(n, d)`` float64 block of points.

        Row ``i`` of the mask is :meth:`contains_point` of row ``i``: the
        same ``lo <= x <= hi`` comparisons, made as one numpy pass per axis
        (infinite bounds behave as in the scalar test).
        """
        inside = np.ones(len(points), dtype=bool)
        for axis, (low, high) in enumerate(zip(self.lo, self.hi)):
            column = points[:, axis]
            inside &= column >= low
            inside &= column <= high
        return inside

    def intersects(self, other: "Rect") -> bool:
        """Whether the two closed rectangles share at least one point."""
        for low, high, other_low, other_high in zip(self.lo, self.hi, other.lo, other.hi):
            if not (low <= other_high and other_low <= high):
                return False
        return True

    def covers(self, other: "Rect") -> bool:
        """Whether ``other`` is fully contained in this rectangle."""
        for low, high, other_low, other_high in zip(self.lo, self.hi, other.lo, other.hi):
            if not (low <= other_low and other_high <= high):
                return False
        return True

    def boundary_contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies on the boundary of this rectangle.

        The boundary of an unbounded side is empty (a point can never sit on
        an infinite bound), matching the polyhedron-boundary definition of
        the paper's footnote 7.
        """
        if not self.contains_point(point):
            return False
        return any(
            point[i] == self.lo[i] or point[i] == self.hi[i]
            for i in range(self.dim)
            if math.isfinite(self.lo[i]) or math.isfinite(self.hi[i])
        )

    def interior_contains(self, point: Sequence[float]) -> bool:
        """Strict (open) containment test."""
        return all(
            self.lo[i] < point[i] < self.hi[i] for i in range(self.dim)
        )

    # -- constructions --------------------------------------------------------

    def clip(self, other: "Rect") -> "Rect":
        """Intersection of two rectangles (raises if empty)."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def split(self, axis: int, value: float) -> Tuple["Rect", "Rect"]:
        """Split by the hyperplane ``x[axis] == value`` into two closed halves.

        The halves share the splitting hyperplane on their boundary — they
        "touch only at boundary and are interior disjoint", exactly the
        kd-tree cell rule of §3.1.
        """
        if not (self.lo[axis] <= value <= self.hi[axis]):
            raise ValidationError(
                f"split value {value} outside axis-{axis} extent "
                f"[{self.lo[axis]}, {self.hi[axis]}]"
            )
        left_hi = list(self.hi)
        left_hi[axis] = value
        right_lo = list(self.lo)
        right_lo[axis] = value
        return Rect(self.lo, left_hi), Rect(right_lo, self.hi)

    def vertices(self) -> Tuple[Tuple[float, ...], ...]:
        """All 2^d corner points (requires a bounded rectangle)."""
        if not self.is_bounded():
            raise ValidationError("cannot enumerate vertices of an unbounded rectangle")
        corners = [()]
        for low, high in zip(self.lo, self.hi):
            corners = [c + (v,) for c in corners for v in ((low, high) if low != high else (low,))]
        return tuple(corners)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rect) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        sides = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lo, self.hi))
        return f"Rect({sides})"

"""SP-KW and LC-KW: simplex / linear-constraint reporting with keywords.

Theorem 12 (Appendix D) converts a partition tree into an SP-KW index via
the same four framework steps as Theorem 1, replacing the kd-tree with a
partition tree and rectangles with simplices.  Theorem 5 then answers an
LC-KW query (``s = O(1)`` linear constraints) by decomposing its feasible
polyhedron — clipped to a box enclosing all data — into ``O(1)`` simplices
and issuing one SP-KW query per simplex.

The partition scheme is pluggable (see DESIGN.md for the substitution of
Chan's optimal partition tree): the default box scheme gives exact
guarantees for axis-parallel facets and practical behaviour for oblique
ones; the Willard scheme (d = 2) restores a provable crossing bound for
arbitrary lines at a weaker exponent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.halfspaces import HalfSpace
from ..geometry.rectangles import Rect
from ..geometry.regions import ConvexRegion, EverythingRegion
from ..geometry.simplex import Simplex
from ..geometry.triangulate import triangulate_vertices
from ..geometry.polytope import polytope_from_constraints
from ..partitiontree import ConvexCell, PartitionTree, WillardScheme
from ..trace import span_for
from .transform import KeywordTransform, QueryStats, verbose_points


class SpKwIndex:
    """Theorem 12: simplex reporting with keywords."""

    def __init__(self, dataset: Dataset, k: int, scheme=None):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        self._originals = list(dataset.objects)

        points = [obj.point for obj in dataset.objects]
        lo = tuple(min(p[i] for p in points) - 1.0 for i in range(self.dim))
        hi = tuple(max(p[i] for p in points) + 1.0 for i in range(self.dim))
        root_cell = Rect(lo, hi)
        if isinstance(scheme, WillardScheme):
            root_cell = ConvexCell.from_rect(root_cell)
        tree = PartitionTree(
            verbose_points(dataset.objects),
            scheme=scheme,
            leaf_size=1,
            root_cell=root_cell,
        )
        self._transform = KeywordTransform(
            dataset.objects, tree, k, component="sp_kw"
        )
        self.data_lo, self.data_hi = lo, hi

    def query_simplex(
        self,
        simplex: Simplex,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> List[KeywordObject]:
        """Report ``q ∩ D(w1..wk)`` for the d-simplex ``q``."""
        words = validate_query_keywords(keywords, self.k)
        region = ConvexRegion.from_simplex(simplex)
        return self._transform.query(region, words, counter, max_report, stats)

    def query_region(
        self,
        region: ConvexRegion,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> List[KeywordObject]:
        """Report matches inside an arbitrary convex halfspace-intersection.

        A convex region with ``c`` facets is itself a valid query range for
        the framework (the covered/crossing analysis only uses convexity and
        the constant facet count), so single-region queries skip the simplex
        decomposition entirely.
        """
        words = validate_query_keywords(keywords, self.k)
        return self._transform.query(region, words, counter, max_report, stats)

    @property
    def input_size(self) -> int:
        """``N``."""
        return self._transform.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._transform.space_units


class LcKwIndex:
    """Theorem 5: linear-conjunction reporting with keywords.

    A thin driver over :class:`SpKwIndex`: clip the constraint polyhedron to
    an enclosing data box, triangulate, query each simplex, deduplicate (the
    simplices share facets), and apply the exact constraint filter — one
    scalar loop charging one ``comparisons`` unit per candidate.
    """

    def __init__(self, dataset: Dataset, k: int, scheme=None):
        self._sp = SpKwIndex(dataset, k, scheme=scheme)
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim

    def query(
        self,
        constraints: Sequence[HalfSpace],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
    ) -> List[KeywordObject]:
        """Report every object satisfying all ``constraints`` and keywords."""
        words = validate_query_keywords(keywords, self.k)
        for constraint in constraints:
            if constraint.dim != self.dim:
                raise ValidationError(
                    f"constraint is {constraint.dim}-dimensional, data is "
                    f"{self.dim}-dimensional"
                )
        counter = ensure_counter(counter)
        simplices = []
        if len(constraints) > 1:
            vertices = polytope_from_constraints(
                constraints, self._sp.data_lo, self._sp.data_hi
            ).enumerate_vertices()
            if not vertices:
                return []  # no feasible point near the data
            simplices = triangulate_vertices(vertices, self.dim)
        if not simplices:
            # A single halfspace (or no constraint at all) is already a
            # convex query region; no decomposition needed.  So is a
            # feasible region without a full-dimensional simplex (a
            # zero-width rectangle through data points, say): it may still
            # hold data, which no simplex would reach.
            region = (
                ConvexRegion(constraints)
                if constraints
                else EverythingRegion(self.dim)
            )
            with span_for(counter, "region", "lc_kw"):
                found = self._sp.query_region(region, words, counter, max_report)
                result = []
                for obj in found:
                    counter.charge("comparisons")
                    if self._satisfies(obj, constraints):
                        result.append(obj)
            return result

        seen = set()
        result: List[KeywordObject] = []
        for index, simplex in enumerate(simplices):
            remaining = None if max_report is None else max_report - len(result)
            if remaining is not None and remaining <= 0:
                break
            with span_for(counter, f"simplex-{index}", "lc_kw"):
                found = self._sp.query_simplex(
                    simplex, words, counter, max_report=remaining
                )
                for obj in found:
                    counter.charge("comparisons")
                    if obj.oid not in seen and self._satisfies(obj, constraints):
                        seen.add(obj.oid)
                        result.append(obj)
        return result

    def is_empty(
        self,
        constraints: Sequence[HalfSpace],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> bool:
        """Emptiness query via the budgeted-probe trick (footnote 4)."""
        exponent = 1.0 - 1.0 / max(self.k, self.dim)
        budget = int(PROBE_FACTOR * (8 + self.input_size**exponent))
        found, _ = ensure_counter(counter).attempt(
            budget, lambda probe: self.query(constraints, keywords, probe, max_report=1)
        )
        return found == []

    @staticmethod
    def _satisfies(obj: KeywordObject, constraints: Sequence[HalfSpace]) -> bool:
        return all(h.contains(obj.point) for h in constraints)

    @property
    def input_size(self) -> int:
        """``N``."""
        return self._sp.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._sp.space_units

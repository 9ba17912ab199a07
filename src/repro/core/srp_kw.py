"""SRP-KW: spherical range reporting with keywords (Corollary 6).

Lift each data point ``p in R^d`` to ``p' = (p, |p|^2) in R^{d+1}``; a query
ball of center ``c`` and radius ``r`` becomes a single halfspace in the
lifted space (see :mod:`repro.geometry.lifting`).  SRP-KW is thus LC-KW with
one linear constraint in ``d + 1`` dimensions, answered by the Theorem-5
index.  An exact distance post-filter guards against the float tolerance of
the halfspace test on the ball's boundary.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.lifting import lift_point, lift_sphere_squared
from ..geometry.regions import ConvexRegion
from ..trace import span_for
from .lc_kw import SpKwIndex


class SrpKwIndex:
    """The Corollary-6 index for spherical range reporting with keywords.

    The exact distance post-filter is one scalar loop charging one
    ``comparisons`` unit per lifted candidate.
    """

    def __init__(self, dataset: Dataset, k: int, scheme=None):
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        lifted = [
            KeywordObject(oid=obj.oid, point=lift_point(obj.point), doc=obj.doc)
            for obj in dataset.objects
        ]
        self._originals = {obj.oid: obj for obj in dataset.objects}
        self._sp = SpKwIndex(Dataset(lifted), k, scheme=scheme)

    def query(
        self,
        center: Sequence[float],
        radius: float,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
    ) -> List[KeywordObject]:
        """Report keyword matches within L2 distance ``radius`` of ``center``."""
        if radius < 0:
            raise ValidationError("radius must be non-negative")
        return self.query_squared(
            center, float(radius) ** 2, keywords, counter, max_report
        )

    def query_squared(
        self,
        center: Sequence[float],
        radius_squared: float,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
    ) -> List[KeywordObject]:
        """Same as :meth:`query` but parameterized by ``radius^2``.

        The L2NN driver (Corollary 7) binary-searches squared radii, which
        remain exact integers on integer inputs.
        """
        if len(center) != self.dim:
            raise ValidationError(f"query center must be {self.dim}-dimensional")
        if radius_squared < 0:
            raise ValidationError("radius must be non-negative")
        words = validate_query_keywords(keywords, self.k)
        halfspace = lift_sphere_squared(center, radius_squared)
        counter = ensure_counter(counter)
        with span_for(counter, "lifted-query", "srp_kw"):
            found = self._sp.query_region(
                ConvexRegion([halfspace]), words, counter, max_report
            )
            result = []
            for lifted_obj in found:
                counter.charge("comparisons")
                obj = self._originals[lifted_obj.oid]
                dist_sq = sum((a - b) ** 2 for a, b in zip(obj.point, center))
                if dist_sq <= radius_squared + 1e-9 * max(1.0, radius_squared):
                    result.append(obj)
        return result

    def is_empty(
        self,
        center: Sequence[float],
        radius: float,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> bool:
        """Budgeted emptiness (footnote 4): is the ball free of matches?"""
        exponent = 1.0 - 1.0 / max(self.k, self.dim + 1)
        budget = int(PROBE_FACTOR * (8 + self.input_size**exponent))
        found, _ = ensure_counter(counter).attempt(
            budget, lambda probe: self.query(center, radius, keywords, probe, max_report=1)
        )
        return found == []

    @property
    def input_size(self) -> int:
        """``N``."""
        return self._sp.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._sp.space_units

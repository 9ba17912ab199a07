"""L2NN-KW: t nearest neighbours under L2 with keywords (Corollary 7).

As in the paper, the input points live in ``N^d`` (``O(log N)``-bit
integers), so every pairwise *squared* distance is an exact integer in a
polynomial range; the smallest squared radius whose ball holds at least
``t`` keyword matches is found by plain integer binary search with budgeted
SRP-KW probes — ``O(log N)`` probes total, each costing the Corollary-6
query bound at ``OUT <= t``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..trace import span_for
from .baselines import l2_distance_squared
from .srp_kw import SrpKwIndex


class L2NnIndex:
    """The Corollary-7 index for L2 nearest neighbours with keywords."""

    def __init__(self, dataset: Dataset, k: int, scheme=None):
        for obj in dataset.objects:
            for coord in obj.point:
                if coord != int(coord):
                    raise ValidationError(
                        "L2NN-KW requires integer coordinates (the paper's N^d); "
                        f"object {obj.oid} has {obj.point}"
                    )
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        self._srp = SrpKwIndex(dataset, k, scheme=scheme)
        points = [obj.point for obj in dataset.objects]
        self._coord_lo = tuple(min(p[i] for p in points) for i in range(self.dim))
        self._coord_hi = tuple(max(p[i] for p in points) for i in range(self.dim))

    def query(
        self,
        q: Sequence[float],
        t: int,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Return (up to) ``t`` keyword matches closest to ``q`` under L2."""
        if len(q) != self.dim:
            raise ValidationError(f"query point must be {self.dim}-dimensional")
        if t < 1:
            raise ValidationError(f"t must be >= 1, got {t}")
        if any(c != int(c) for c in q):
            raise ValidationError("L2NN-KW query points must be integral")
        words = validate_query_keywords(keywords, self.k)
        counter = ensure_counter(counter)

        budget = self._probe_budget(t)
        while True:
            radius_sq, fewer_than_t = self._search_radius(q, t, words, budget, counter)
            matches = self._collect(q, radius_sq, words, t, fewer_than_t, budget, counter)
            if matches is not None:
                return matches
            budget *= 2

    # -- internals ----------------------------------------------------------------

    def _probe_budget(self, t: int) -> int:
        n = self._srp.input_size
        bound = n ** (1.0 - 1.0 / self.k) * t ** (1.0 / self.k)
        return int(PROBE_FACTOR * (bound + 8))

    def _ball_has_t(
        self,
        q: Sequence[float],
        radius_sq: int,
        words,
        t: int,
        budget: int,
        counter: CostCounter,
    ) -> bool:
        with span_for(counter, "probe", "nn_l2"):
            found, _ = counter.attempt(
                budget,
                lambda probe: self._srp.query_squared(
                    q, float(radius_sq), words, probe, max_report=t
                ),
            )
        return found is None or len(found) >= t

    def _max_radius_squared(self, q: Sequence[float]) -> int:
        """Upper bound on any data point's squared distance from ``q``.

        Computed from the per-dimension coordinate extremes so the search
        never scans the dataset.
        """
        total = 0
        for axis in range(self.dim):
            span = max(abs(q[axis] - self._coord_lo[axis]), abs(q[axis] - self._coord_hi[axis]))
            total += int(span) ** 2 + 2 * int(span) + 1
        return total

    def _search_radius(
        self,
        q: Sequence[float],
        t: int,
        words,
        budget: int,
        counter: CostCounter,
    ):
        """Integer binary search over squared radii.

        The candidate space is ``[0, max pairwise squared distance]`` — a
        ``N^{O(1)}`` range, so ``O(log N)`` probes suffice.
        """
        hi = self._max_radius_squared(q)
        counter.charge("comparisons", int(math.log2(max(hi, 2))))
        if self._ball_has_t(q, 0, words, t, budget, counter):
            return 0, False
        if not self._ball_has_t(q, hi, words, t, budget, counter):
            return hi, True
        lo = 0  # P(lo) False, P(hi) True
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._ball_has_t(q, mid, words, t, budget, counter):
                hi = mid
            else:
                lo = mid
        return hi, False

    def _collect(
        self,
        q: Sequence[float],
        radius_sq: int,
        words,
        t: int,
        fewer_than_t: bool,
        budget: int,
        counter: CostCounter,
    ) -> Optional[List[KeywordObject]]:
        with span_for(counter, "collect", "nn_l2"):
            found, _ = counter.attempt(
                budget * 4,
                lambda probe: self._srp.query_squared(q, float(radius_sq), words, probe),
            )
        if found is None or (len(found) < t and not fewer_than_t):
            return None
        found.sort(key=lambda obj: (l2_distance_squared(q, obj.point), obj.oid))
        return found[:t]

    @property
    def input_size(self) -> int:
        """``N``."""
        return self._srp.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._srp.space_units

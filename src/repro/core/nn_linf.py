"""L∞NN-KW: t nearest neighbours under L∞ with keywords (Corollary 4).

The driver of Appendix F: the smallest radius ``r*`` whose L∞ ball
``B(q, r*)`` holds at least ``t`` keyword matches is always a *candidate
radius* (a per-dimension coordinate difference).  Binary-search the candidate
radii, deciding each probe with a **budgeted** ORP-KW query: if the
reporting query on ``B(q, r)`` does not finish within
``O(N^(1-1/k) * t^(1/k))`` cost units, the ball must contain at least ``t``
matches and the probe is cut short (the paper's footnote 4).

The probe budget is :data:`~repro.costmodel.PROBE_FACTOR` times the
theoretical bound, and :meth:`~repro.costmodel.CostCounter.attempt` cuts each
probe short; on the off-chance the constant is too tight for a particular
instance (the final report then yields fewer than ``t`` objects), the driver
doubles the budget and retries — preserving both correctness and the
asymptotic cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..trace import span_for
from .baselines import linf_distance
from .orp_kw import OrpKwIndex
from .selection import CandidateRadii


class LinfNnIndex:
    """The Corollary-4 index for L∞ nearest neighbours with keywords."""

    def __init__(
        self,
        dataset: Dataset,
        k: int,
        backend: str = "auto",
    ):
        if backend not in ("auto", "kd", "dimred"):
            raise ValidationError(f"unknown backend {backend!r}")
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        # Corollary 4 holds in any dimension; for d >= 3 the right substrate
        # is Theorem 2's dimension-reduction index (the kd route degrades to
        # the §3.5 remark's bound).
        if backend == "auto":
            backend = "dimred" if dataset.dim >= 3 else "kd"
        if backend == "dimred":
            from .dim_reduction import DimReductionOrpKw

            self._index = DimReductionOrpKw(dataset, k)
        else:
            self._index = OrpKwIndex(dataset, k)
        self._radii = CandidateRadii([obj.point for obj in dataset.objects])

    # -- queries -----------------------------------------------------------------

    def query(
        self,
        q: Sequence[float],
        t: int,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Return (up to) ``t`` keyword matches closest to ``q`` under L∞."""
        if len(q) != self.dim:
            raise ValidationError(f"query point must be {self.dim}-dimensional")
        if t < 1:
            raise ValidationError(f"t must be >= 1, got {t}")
        words = validate_query_keywords(keywords, self.k)
        counter = ensure_counter(counter)

        budget = self._probe_budget(t)
        while True:
            radius, verified_hi, fewer_than_t = self._search_radius(
                q, t, words, budget, counter
            )
            matches = self._collect(q, radius, words, t, fewer_than_t, budget, counter)
            if matches is None and radius < verified_hi:
                # The exact candidate snap can under-shoot by one float ulp;
                # the bisection's upper end was probe-verified to hold >= t.
                matches = self._collect(
                    q, verified_hi, words, t, fewer_than_t, budget, counter
                )
            if matches is not None:
                return matches
            budget *= 2  # constant was too tight for this instance; retry

    def query_approx_l2(
        self,
        q: Sequence[float],
        t: int,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Approximate L2 nearest neighbours via the L∞ index.

        §1.1 under Corollary 4: "the L∞ distance between any two points is a
        constant-factor approximation of their L2 distance"
        (``L∞ <= L2 <= sqrt(d) * L∞``), so the L∞ answer set is a
        ``sqrt(d)``-approximate L2 answer set at the same query cost.  The
        returned matches are re-ranked by true L2 distance.
        """
        found = self.query(q, t, keywords, counter)
        found.sort(
            key=lambda obj: (
                sum((a - b) ** 2 for a, b in zip(q, obj.point)),
                obj.oid,
            )
        )
        return found

    # -- internals ------------------------------------------------------------------

    def _probe_budget(self, t: int) -> int:
        n = self._index.input_size
        bound = n ** (1.0 - 1.0 / self.k) * t ** (1.0 / self.k)
        return int(PROBE_FACTOR * (bound + 8))

    def _ball(self, q: Sequence[float], radius: float) -> Rect:
        # Inflate by a relative epsilon: reconstructing a ball boundary as
        # q +- |q - e| can miss the defining point e by one rounding ulp.
        # The inflation can only *add* candidates at distance radius(1+eps),
        # which the final sort-by-true-distance step filters back out.
        eps = 1e-12 * max(1.0, radius, max(abs(c) for c in q))
        slack = radius + eps
        return Rect(
            tuple(c - slack for c in q), tuple(c + slack for c in q)
        )

    def _ball_has_t(
        self,
        q: Sequence[float],
        radius: float,
        words,
        t: int,
        budget: int,
        counter: CostCounter,
    ) -> bool:
        """Budgeted probe: does ``B(q, radius)`` hold >= t keyword matches?"""
        ball = self._ball(q, radius)
        with span_for(counter, "probe", "nn_linf"):
            found, _ = counter.attempt(
                budget, lambda probe: self._index.query(ball, words, probe, max_report=t)
            )
        # A probe that could not finish in time => at least t matches.
        return found is None or len(found) >= t

    def _search_radius(
        self,
        q: Sequence[float],
        t: int,
        words,
        budget: int,
        counter: CostCounter,
    ):
        """Binary search for the smallest candidate radius with >= t matches.

        Returns ``(radius, verified_hi, fewer_than_t)``: ``verified_hi`` is
        the smallest radius a probe has *positively confirmed* to hold >= t
        matches (the fallback if the exact candidate snap under-shoots);
        ``fewer_than_t`` is set when even the all-covering ball holds fewer
        than ``t`` matches.
        """
        lo = 0.0
        hi = self._radii.max_radius(q)
        if self._ball_has_t(q, 0.0, words, t, budget, counter):
            return 0.0, 0.0, False
        if not self._ball_has_t(q, hi, words, t, budget, counter):
            return hi, hi, True  # fewer than t matches exist in all of D
        # Invariant: P(lo) is False, P(hi) is True; shrink until (lo, hi]
        # contains a single candidate radius.
        while self._radii.count_within(q, hi, counter) - self._radii.count_within(
            q, lo, counter
        ) > 1:
            mid = (lo + hi) / 2.0
            if mid <= lo or mid >= hi:
                break  # float exhaustion; snap below
            if self._ball_has_t(q, mid, words, t, budget, counter):
                hi = mid
            else:
                lo = mid
        remaining = self._radii.count_within(q, hi, counter) - self._radii.count_within(
            q, lo, counter
        )
        if remaining == 1:
            successor = self._radii.successor(q, lo, counter)
            if successor is not None:
                return min(hi, successor), hi, False
        # Float exhaustion without isolating a single candidate (coincident
        # candidate values): fall back to the verified upper end.
        return hi, hi, False

    def _collect(
        self,
        q: Sequence[float],
        radius: float,
        words,
        t: int,
        fewer_than_t: bool,
        budget: int,
        counter: CostCounter,
    ) -> Optional[List[KeywordObject]]:
        """Final report on the ball; ``None`` signals a budget retry."""
        ball = self._ball(q, radius)
        with span_for(counter, "collect", "nn_linf"):
            found, _ = counter.attempt(
                budget * 4, lambda probe: self._index.query(ball, words, probe)
            )
        if found is None or (len(found) < t and not fewer_than_t):
            # Cut short, or a budgeted probe over-declared and the search
            # stopped at a ball that is too small; retry with a doubled budget.
            return None
        found.sort(key=lambda obj: (linf_distance(q, obj.point), obj.oid))
        return found[:t]

    @property
    def input_size(self) -> int:
        """``N``."""
        return self._index.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._index.space_units

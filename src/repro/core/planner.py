"""A hybrid query planner: choose between the naives and the fused index.

§1 frames three ways to answer a keyword+range query: structured only,
keywords only, or a fused index.  The paper proves the fused index's
worst-case superiority — but on easy queries the naives' constants can win
(a three-object posting list beats any tree walk).  A production system
therefore *plans*: estimate each strategy's cost from cheap statistics and
run the cheapest.

Estimates used (all O(k + log n) per query):

* keywords-only ≈ the shortest posting-list length;
* structured-only ≈ ``|D| * sel(q)``, with the rectangle selectivity
  ``sel(q)`` estimated on a fixed random sample of the points;
* fused ≈ ``N^(1-1/k) * (1 + est_OUT^(1/k))`` with
  ``est_OUT ≈ sel(q) * shortest posting * (second posting / |D|)`` — the
  independence heuristic classic to query optimizers.

The planner never affects correctness (all three strategies are exact);
mis-estimates only cost time, and the E-P1 benchmark measures how close the
planner lands to the per-query optimum.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_nonempty_keywords
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..ksi.inverted import InvertedIndex
from ..trace import span_for
from .baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from .multi_k import MultiKOrpIndex
from .orp_kw import OrpKwIndex

STRATEGIES = ("fused", "keywords_only", "structured_only")

#: Points in the fixed selectivity sample (drawn once per planner with a
#: ``random.Random(0)``, so every planner over one corpus samples alike).
SAMPLE_SIZE = 256


class HybridPlanner:
    """Cost-based routing between the three §1 strategies.

    :meth:`strategies_by_cost` is the serving layer's plan: it returns the
    strategy chain and the estimates it was ordered by, and keeps nothing
    between calls.  :meth:`query` is the race (fused index first, under the
    best naive estimate as its budget), which records its choice in
    :attr:`last_plan`.  Rectangle selectivity is estimated on
    :data:`SAMPLE_SIZE` points drawn with seed 0, held as one ``(m, d)``
    float64 block and tested in one :meth:`Rect.contains_points` pass.
    """

    def __init__(
        self,
        dataset: Dataset,
        k: int,
        fused_index: Optional[Union[OrpKwIndex, MultiKOrpIndex]] = None,
        inverted: Optional[InvertedIndex] = None,
        structured: Optional[StructuredOnlyIndex] = None,
        keywords_index: Optional[KeywordsOnlyIndex] = None,
    ):
        """The optional ``fused_index`` / ``inverted`` / ``structured`` /
        ``keywords_index`` parameters let a caller that already built those
        structures share them instead of paying for duplicates.
        :class:`repro.service.QueryEngine` passes its
        :class:`~repro.core.multi_k.MultiKOrpIndex` as the fused index, so
        its one planner plans every keyword count; without one the planner
        builds a Theorem-1 index for exactly ``k`` keywords.
        """
        self.dataset = dataset
        # The fused index cannot be built over zero objects; an empty dataset
        # gets a fused-less planner whose every strategy reports nothing.
        if fused_index is not None:
            self._fused = fused_index
        elif dataset.objects:
            self._fused = OrpKwIndex(dataset, k)
        else:
            self._fused = None
        self._structured = (
            structured if structured is not None else StructuredOnlyIndex(dataset)
        )
        self._keywords = (
            keywords_index if keywords_index is not None else KeywordsOnlyIndex(dataset)
        )
        self._inverted = inverted if inverted is not None else InvertedIndex(dataset)
        population = [obj.point for obj in dataset.objects]
        count = min(SAMPLE_SIZE, len(population))
        self._sample = np.array(
            random.Random(0).sample(population, count), dtype=np.float64
        ).reshape(count, dataset.dim)
        self.last_plan: Optional[Dict[str, float]] = None

    # -- estimation -----------------------------------------------------------

    def _selectivity(self, rect: Rect) -> float:
        count = len(self._sample)
        if not count:
            return 0.0
        return int(np.count_nonzero(rect.contains_points(self._sample))) / count

    def estimate(self, rect: Rect, keywords: Sequence[int]) -> Dict[str, float]:
        """Per-strategy cost estimates (cost-model units).

        The fused estimate takes ``k`` from the query's distinct keywords.
        A one-keyword query gets none: its fused route is the posting scan
        that keywords-only already is.  A rectangle of another dimension
        than the corpus is refused with the engines' message before the
        sample is tested.
        """
        words = set(validate_nonempty_keywords(keywords))
        rect.require_dim(self.dataset.dim)
        postings = sorted(self._inverted.frequency(w) for w in words)
        shortest = postings[0]
        count = len(self.dataset)
        sel = self._selectivity(rect)
        estimates = {
            "keywords_only": float(shortest),
            "structured_only": max(sel * count, 1.0),
        }
        k = len(postings)
        if k >= 2:
            est_out = sel * shortest * (postings[1] / max(count, 1))
            n = self.dataset.total_doc_size
            estimates["fused"] = n ** (1.0 - 1.0 / k) * (1.0 + est_out ** (1.0 / k))
            estimates["est_out"] = est_out
        estimates["selectivity"] = sel
        return estimates

    def choose(self, rect: Rect, keywords: Sequence[int]) -> str:
        """Name of the naive strategy with the smallest estimate.

        This is the *fallback* choice — :meth:`query` races the fused index
        against it under a budget, so the fused index is preferred whenever
        it can finish within the best naive estimate.
        """
        estimates = self.estimate(rect, keywords)
        choice = min(
            ("keywords_only", "structured_only"), key=lambda s: estimates[s]
        )
        self.last_plan = dict(estimates, fallback=choice)
        return choice

    def strategies_by_cost(
        self, rect: Rect, keywords: Sequence[int]
    ) -> Tuple[List[str], Dict[str, float]]:
        """The strategies, cheapest estimate first, and the estimates.

        The serving layer's fallback chain: try each in turn under the
        remaining budget.  Ties break toward the fused index (its estimate is
        a worst-case bound, the naives' are expectations).  A one-keyword
        query's chain leaves the fused index out.
        """
        estimates = self.estimate(rect, keywords)
        order = sorted(
            (s for s in STRATEGIES if s in estimates),
            key=lambda s: (estimates[s], STRATEGIES.index(s)),
        )
        return order, estimates

    # -- execution ----------------------------------------------------------------

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Budgeted race: fused first, best naive as the fallback.

        The fused index runs under a hard budget equal to the cheapest naive
        estimate (plus slack); if it exceeds the budget — which can only
        happen on queries where a naive is genuinely competitive — the
        cheapest naive finishes the job.  Total cost is therefore at most
        ``~2x`` the best naive on every query while keeping the fused
        index's polynomial wins intact.  Always exact.  The fused probe is
        charged to ``counter`` once, whether it finishes or not; a
        ``counter`` whose own budget that charge exhausts raises
        :class:`~repro.errors.BudgetExceeded`.
        """
        counter = ensure_counter(counter)
        fallback = self.choose(rect, keywords)
        if self._fused is not None:
            budget = int(self.last_plan[fallback]) + 32
            with span_for(counter, "fused", "planner", budget=budget):
                result, _ = counter.attempt(
                    budget, lambda probe: self._fused.query(rect, keywords, probe)
                )
            if result is not None:
                self.last_plan["choice"] = "fused"
                return result
        self.last_plan["choice"] = fallback
        with span_for(counter, fallback, "planner"):
            if fallback == "keywords_only":
                return self._keywords.query_rect(rect, keywords, counter)
            return self._structured.query_rect(rect, keywords, counter)

    def query_with(
        self,
        strategy: str,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Run a specific strategy (for planner-quality measurements)."""
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
        counter = ensure_counter(counter)
        with span_for(counter, strategy, "planner"):
            if strategy == "fused":
                if self._fused is None:
                    validate_nonempty_keywords(keywords)
                    return []
                return self._fused.query(rect, keywords, counter)
            if strategy == "keywords_only":
                return self._keywords.query_rect(rect, keywords, counter)
            return self._structured.query_rect(rect, keywords, counter)

    @property
    def space_units(self) -> int:
        """Fused index + baselines + the sample."""
        fused = self._fused.space_units if self._fused is not None else 0
        return fused + self._inverted.space_units + len(self._sample)

"""RAM-model cost accounting.

The paper's guarantees are statements about operation counts in the standard
RAM model.  Pure-Python wall clock is dominated by interpreter overhead, so
the benchmark harness measures *cost units* instead: every index and baseline
in this library charges the counter one unit per elementary step.  The charge
sites are chosen so that the counted total is (up to a small constant) the
quantity bounded by the paper's theorems:

* ``objects_examined`` — an object was read and tested against the query
  predicate (pivot scans, materialized-list scans, baseline scans);
* ``nodes_visited`` — a tree node was visited by a query;
* ``structure_probes`` — a secondary-structure lookup (large-keyword test,
  non-empty-combination probe, hash membership test);
* ``comparisons`` — a coordinate comparison inside binary searches and
  selection routines.

A :class:`CostCounter` also enforces an optional *budget*: once the total
charge exceeds the budget, :class:`~repro.errors.BudgetExceeded` is raised.
:meth:`CostCounter.attempt` is the one place that runs work under such a
budget and stops it: the paper's footnote 4 ("run the reporting query; if it
does not terminate within its bound, terminate it manually").  Every
emptiness query, both nearest-neighbour drivers (Corollaries 4 and 7), the
planner's race and the serving layer's fallback chain go through it.

A counter can optionally feed a :class:`~repro.trace.Tracer` (set
``counter.tracer = tracer``): every :meth:`~CostCounter.charge` is then also
recorded into the tracer's innermost open span, attributing the unit to the
component that spent it.  Only original charges are recorded — the
accounting transfers :meth:`~CostCounter.merge` / :meth:`~CostCounter.absorb`
move already-recorded units between counters and must not re-record them
(that would double-count spans).  When no tracer is attached the cost per
charge is a single attribute load, and the charged totals are identical
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, Optional, Tuple, TypeVar

from .errors import BudgetExceeded

_T = TypeVar("_T")

#: Counter categories, in display order.
CATEGORIES = (
    "objects_examined",
    "nodes_visited",
    "structure_probes",
    "comparisons",
)

#: Footnote 4's constant: an emptiness or nearest-neighbour probe runs under
#: this many times its family's cost bound (plus a small slack) before it is
#: cut short.
PROBE_FACTOR = 16

#: The same constant for the k-SI emptiness probe (``KSetIndex.is_empty``).
KSI_PROBE_FACTOR = 8


@dataclass
class CostCounter:
    """Accumulates RAM-model cost units, optionally against a hard budget.

    Parameters
    ----------
    budget:
        If not ``None``, :class:`~repro.errors.BudgetExceeded` is raised as
        soon as :attr:`total` exceeds this value.

    Examples
    --------
    >>> counter = CostCounter()
    >>> counter.charge("objects_examined", 3)
    >>> counter.total
    3
    """

    budget: Optional[int] = None
    counts: Dict[str, int] = field(default_factory=dict)
    _total: int = 0

    #: Optional span recorder (see :mod:`repro.trace`).  A class-level
    #: ``None`` keeps untraced instances free of any per-instance state;
    #: attaching is a plain instance-attribute assignment.
    tracer: ClassVar[Optional[Any]] = None

    def charge(self, category: str, units: int = 1) -> None:
        """Add ``units`` to ``category`` and enforce the budget.

        The counts are updated (and the attached tracer, if any, records the
        charge) *before* a blown budget raises, so an interrupted probe's
        spent units — and its trace — are never lost.
        """
        self.counts[category] = self.counts.get(category, 0) + units
        self._total += units
        if self.tracer is not None:
            self.tracer.record(category, units)
        if self.budget is not None and self._total > self.budget:
            raise BudgetExceeded(self._total, self.budget)

    def merge(self, other: "CostCounter") -> None:
        """Fold another counter's per-category counts into this one.

        Used by layered execution (:meth:`attempt`): a probe runs under its
        own budgeted counter, and the spent units are rolled up here *per
        category* instead of being lumped into a single bucket.  This
        counter's own budget still applies — checked once every category is
        in, so a blown budget loses none of the probe's units — but, unlike
        :meth:`charge`, nothing is recorded to an attached tracer: the
        probe's charges were recorded when they originally happened, and an
        accounting transfer must not double-count them in the span tree.
        """
        self.absorb(other)
        if self.budget is not None and self._total > self.budget:
            raise BudgetExceeded(self._total, self.budget)

    def attempt(
        self, budget: Optional[int], run: Callable[["CostCounter"], _T]
    ) -> Tuple[Optional[_T], "CostCounter"]:
        """Run ``run(probe)`` under ``budget``; stop it when the budget runs out.

        ``probe`` is a fresh counter capped at ``budget`` that records into
        this counter's tracer.  Whether ``run`` finishes or is cut short, the
        probe is merged into this counter exactly once (:meth:`merge`: this
        counter's budget applies, its tracer stays silent).  Returns
        ``(result, probe)``, with ``None`` as the result of a run that was
        cut short.  A probe under budget ``B`` records at most ``B`` plus its
        last charge.
        """
        probe = CostCounter(budget=budget)
        probe.tracer = self.tracer
        try:
            result: Optional[_T] = run(probe)
        except BudgetExceeded:
            result = None
        self.merge(probe)
        return result, probe

    def absorb(self, other: "CostCounter") -> None:
        """Fold another counter's counts into this one without budget checks.

        :meth:`merge` enforces this counter's budget, which is right for
        layered *execution* (a blown budget should stop the work).  ``absorb``
        is for *accounting after the fact*: the serving layer reports a
        query's spent units to a caller-supplied counter once the work is
        already done, and a caller whose own budget is exhausted must still
        receive the counts — raising there would lose the trace.  The budget,
        if any, is left over-run rather than enforced.
        """
        for category, units in other.counts.items():
            if units:
                self.counts[category] = self.counts.get(category, 0) + units
                self._total += units

    @property
    def remaining(self) -> Optional[int]:
        """Budget units left (never negative), or ``None`` when unbudgeted."""
        if self.budget is None:
            return None
        return max(self.budget - self._total, 0)

    @property
    def total(self) -> int:
        """Total units charged across all categories."""
        return self._total

    def __getitem__(self, category: str) -> int:
        return self.counts.get(category, 0)

    def reset(self) -> None:
        """Zero all counts (the budget, if any, is kept)."""
        self.counts.clear()
        self._total = 0

    def snapshot(self) -> Dict[str, int]:
        """Return a copy of the per-category counts plus the total."""
        snap = dict(self.counts)
        snap["total"] = self._total
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{key}={val}" for key, val in sorted(self.counts.items()))
        return f"CostCounter(total={self._total}, {parts})"


class NullCounter(CostCounter):
    """A counter that ignores charges; used when cost accounting is off.

    Query methods accept ``counter=None`` and substitute this singleton, so
    the charging call sites never need a conditional.
    """

    def charge(self, category: str, units: int = 1) -> None:  # noqa: D102
        return

    def absorb(self, other: CostCounter) -> None:  # noqa: D102
        return

    def reset(self) -> None:  # noqa: D102
        return


#: Shared do-nothing counter.
NULL_COUNTER = NullCounter()


def ensure_counter(counter: Optional[CostCounter]) -> CostCounter:
    """Return ``counter`` itself, or the shared null counter when ``None``."""
    return counter if counter is not None else NULL_COUNTER

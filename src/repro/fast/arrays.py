"""Contiguous-array data layout for the vectorized execution backend.

The cost-model implementations walk Python objects one at a time; this
module lays the same data out as numpy arrays so the keywords-only
strategy's hot loops — posting-list intersection and rectangle
containment — run as a handful of vectorized passes, and so do the
structured-only strategy's per-point loops: :func:`kd_range` walks the
kd-tree's nodes as :meth:`~repro.kdtree.tree.KdTree.range_query` does but
reports and tests its points as slices of the tree's permutation, and
:meth:`ArrayStore.keyword_filter` keeps the hits holding every keyword.

Correctness contract (the oracle contract, DESIGN.md section 12): every
predicate here mirrors its scalar counterpart *operation for operation*, so
a vectorized query returns the byte-identical result set.  The rectangle
post-filter is :meth:`~repro.geometry.rectangles.Rect.contains_points`,
which makes the same closed ``lo <= p <= hi`` comparisons as
:meth:`~repro.geometry.rectangles.Rect.contains_point` one axis at a time
over a block; both live in ``geometry/``, so the planner's selectivity
count shares the rule without ``core/`` importing this package.

Cost contract: charges are *batch-granularity* — one
``charge(category, n)`` per vectorized pass — but the per-category totals
equal the scalar path's unit-at-a-time totals exactly (the intersection
even reproduces the scalar path's short-circuit: a candidate eliminated by
an earlier keyword is never charged a probe for a later one).  A pass that
would cross its counter's budget charges only the scalar loop's units up
to the crossing one, so a raised budget records the same cost snapshot on
both paths (:meth:`ArrayStore.intersect`, :func:`charge_filter`,
:func:`kd_range`, :meth:`ArrayStore.keyword_filter`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset
from ..geometry.rectangles import Rect
from ..kdtree.tree import KdTree


class ArrayStore:
    """Array mirror of a :class:`~repro.dataset.Dataset`.

    Holds the coordinates as one contiguous ``(n, d)`` float64 block (rows
    in ascending object-id order) and each posting list twice, as sorted
    int64 arrays: of object ids (:attr:`postings`), and of positions in
    ``dataset.objects`` (:attr:`position_postings`), the point order of a
    kd-tree built over the dataset.  Built once per dataset and shared by
    every vectorized executor over it.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        ordered = sorted(dataset.objects, key=lambda obj: obj.oid)
        self.oids = np.array([obj.oid for obj in ordered], dtype=np.int64)
        if ordered:
            self.coords = np.array(
                [obj.point for obj in ordered], dtype=np.float64
            )
        else:
            self.coords = np.zeros((0, dataset.dim or 1), dtype=np.float64)
        positions: Dict[int, List[int]] = {}
        for position, obj in enumerate(dataset.objects):
            for word in obj.doc:
                positions.setdefault(word, []).append(position)
        self.position_postings: Dict[int, np.ndarray] = {
            word: np.array(plist, dtype=np.int64) for word, plist in positions.items()
        }
        position_oids = np.array([obj.oid for obj in dataset.objects], dtype=np.int64)
        self.postings: Dict[int, np.ndarray] = {
            word: np.sort(position_oids[plist])
            for word, plist in self.position_postings.items()
        }

    def frequency(self, keyword: int) -> int:
        """``|D(w)|`` (mirrors :meth:`InvertedIndex.frequency`)."""
        plist = self.postings.get(keyword)
        return 0 if plist is None else int(plist.size)

    def rows(self, oids: np.ndarray) -> np.ndarray:
        """Row indexes into :attr:`coords` for known object ids."""
        return np.searchsorted(self.oids, oids)

    # -- vectorized passes ------------------------------------------------------

    def intersect(
        self, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> np.ndarray:
        """``D(w1..wk)`` as a sorted int64 oid array.

        Mirrors :meth:`InvertedIndex.matching_objects` exactly: the same
        shortest-list-first order (stable sort by frequency), the same
        charge totals (one ``objects_examined`` per shortest-list entry, one
        ``structure_probes`` per membership test actually performed — a
        candidate already eliminated by an earlier keyword is never probed
        for a later one), and the same result order (ascending oid).  When
        the total would cross the counter's budget, only the scalar loop's
        charges up to the crossing unit land (:meth:`_crossing_charges`).
        """
        counter = ensure_counter(counter)
        words = list(keywords)
        if any(self.postings.get(w) is None for w in words):
            return np.empty(0, dtype=np.int64)
        words.sort(key=self.frequency)
        shortest = self.postings[words[0]]
        alive = np.ones(shortest.size, dtype=bool)
        probes: List[int] = []
        for word in words[1:]:
            live = int(alive.sum())
            if live == 0:
                break
            probes.append(live)
            alive &= np.isin(shortest, self.postings[word], assume_unique=True)
        examined = int(shortest.size)
        remaining = counter.remaining
        if remaining is not None and examined + sum(probes) > remaining:
            examined, probes = self._crossing_charges(shortest, words[1:], remaining + 1)
        counter.charge("objects_examined", examined)
        for live in probes:
            counter.charge("structure_probes", live)
        return shortest[alive]

    def _crossing_charges(
        self, shortest: np.ndarray, rest: Sequence[int], units: int
    ) -> Tuple[int, List[int]]:
        """The scalar loop's first ``units`` charges, as (examines, probes).

        The scalar loop charges each candidate one examine, then one probe
        per remaining keyword until one misses.  One cumulative sum over
        those per-candidate counts finds the candidate holding unit
        ``units``; it is charged its examine and as many probes as fit.
        """
        per = np.ones(shortest.size, dtype=np.int64)
        alive = np.ones(shortest.size, dtype=bool)
        for word in rest:
            per += alive
            alive &= np.isin(shortest, self.postings[word], assume_unique=True)
        crossing = int(np.searchsorted(np.cumsum(per), units))
        examined = crossing + 1
        return examined, [units - examined] if units > examined else []

    def rect_mask(self, oids: np.ndarray, rect: Rect) -> np.ndarray:
        """Closed containment mask over the points with the given oids:
        :meth:`Rect.contains_points` over their rows of the coordinate
        block."""
        return rect.contains_points(self.coords[self.rows(oids)])

    def keyword_filter(
        self, positions: np.ndarray, words: Sequence[int], counter: CostCounter
    ) -> np.ndarray:
        """The positions (in ``dataset.objects``) whose documents hold every
        keyword of ``words``, in the given order.

        Mirrors :meth:`StructuredOnlyIndex._filter
        <repro.core.baselines.StructuredOnlyIndex._filter>`: ``len(words)``
        ``structure_probes`` per position, with no short circuit.  A charge
        that would cross the budget lands as the scalar loop's, which
        charges whole positions: ``(remaining // k + 1) * k``.  Then one
        membership pass per keyword narrows the candidates: the keyword's
        :attr:`position_postings` are marked in a mask over the positions,
        made for the pass and dropped after it, and the candidates read it.
        """
        k = len(words)
        probes = k * int(positions.size)
        remaining = counter.remaining
        if remaining is not None and probes > remaining:
            probes = (remaining // k + 1) * k
        if probes:
            counter.charge("structure_probes", probes)
        for word in words:
            if not positions.size:
                break
            plist = self.position_postings.get(word)
            if plist is None:
                return positions[:0]
            held = np.zeros(len(self.dataset.objects), dtype=bool)
            held[plist] = True
            positions = positions[held[positions]]
        return positions


def kd_range(tree: KdTree, rect: Rect, counter: CostCounter) -> np.ndarray:
    """:meth:`KdTree.range_query <repro.kdtree.tree.KdTree.range_query>` as
    an int array of point indices, in the same order, at the same charges.

    The nodes are walked in Python exactly as the scalar loop walks them:
    pop, one ``nodes_visited``, ``rect.intersects(cell)``; a leaf's span is
    kept for testing, an internal node the rectangle covers is reported
    whole, any other node pushes both children.  A running total of the
    scalar loop's units (one per node, one ``objects_examined`` per point
    of a kept span) is compared with ``remaining + 1``; where it reaches
    it — on a node visit, or inside a span — the walk stops, and the
    batch charges below land exactly the units the scalar loop charges
    before it raises, so the last of them raises.  Otherwise the kept spans
    are gathered from :attr:`~repro.kdtree.tree.KdTree.perm` in walk order
    and the leaf spans tested in one :meth:`Rect.contains_points` pass.
    """
    rect.require_dim(tree.dim)
    remaining = counter.remaining
    # Unbudgeted, the limit is out of reach: a walk visits each node once
    # (fewer than 2n of them) and examines each point once.
    limit = 3 * len(tree.points) if remaining is None else remaining + 1
    used = examined = 0
    # Per kept span: where it starts in perm less where it starts in the
    # gathered array, its size, and whether it is a leaf (to be tested).
    spans: List[Tuple[int, int, bool]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        used += 1
        if used >= limit:
            break
        if not rect.intersects(node.cell):
            continue
        leaf = not node.children
        if leaf or rect.covers(node.cell):
            size = node.end - node.start
            if used + size >= limit:
                examined += limit - used
                used = limit
                break
            spans.append((node.start - examined, size, leaf))
            used += size
            examined += size
            continue
        stack.extend(node.children)
    counter.charge("nodes_visited", used - examined)
    if examined:
        counter.charge("objects_examined", examined)
    if not spans:
        return np.empty(0, dtype=np.int64)
    shift, sizes, leaves = np.array(spans, dtype=np.int64).T
    positions = tree.perm[np.arange(examined) + shift.repeat(sizes)]
    tested = leaves.astype(bool).repeat(sizes)
    keep = ~tested
    keep[tested] = rect.contains_points(tree.points[positions[tested]])
    return positions[keep]


def charge_filter(counter: CostCounter, candidates: int) -> None:
    """Charge a batched post-filter's ``comparisons``: one per candidate,
    the scalar loop's charge.  Under a budget the pass would cross, only
    ``remaining + 1`` land — where the scalar loop raises."""
    remaining = counter.remaining
    if remaining is not None:
        candidates = min(candidates, remaining + 1)
    counter.charge("comparisons", candidates)

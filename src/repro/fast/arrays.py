"""Position-space data layout for the vectorized execution backend.

The cost-model implementations walk Python objects one at a time; this
module lays the same data out as numpy arrays and plain lists of positions
in ``dataset.objects``, the point order of a kd-tree built over the
dataset, so each strategy's hot loops run as a handful of vectorized
passes that gather, test and report positions:

* keywords-only — :meth:`ArrayStore.intersect` narrows the shortest
  posting list, and the caller tests the survivors' rows of the tree's
  points;
* structured-only — :func:`kd_range` walks a kd-tree's :class:`KdTable`
  as :meth:`~repro.kdtree.tree.KdTree.range_query` walks the tree, but
  reports and tests its points as spans of the tree's permutation, and
  :meth:`ArrayStore.keyword_filter` keeps the hits holding every keyword;
* fused — :func:`fused_range` walks a Theorem-1 index's
  :class:`FusedTable` as the transform's scalar descent walks its nodes,
  and gathers the pivot sets and materialized lists it scans as spans of
  one position array, which the caller tests in one pass.

Every keyword test is one :meth:`ArrayStore.holds` mask pass.

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
:func:`kd_range`, :func:`fused_range`, :meth:`ArrayStore.keyword_filter`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.orp_kw import OrpKwIndex
from ..core.transform import TransformNode
from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject
from ..geometry.rectangles import Rect
from ..kdtree.tree import KdNode, KdTree


class ArrayStore:
    """A :class:`~repro.dataset.Dataset`'s posting lists as position arrays.

    :attr:`postings` maps each keyword to an int64 array of the positions
    in ``dataset.objects`` (the point order of a kd-tree built over the
    dataset) of the objects holding it, listed in ascending object-id
    order, the order of :class:`~repro.ksi.inverted.InvertedIndex`'s
    lists.  The arrays are read-only: :meth:`intersect` hands a
    one-keyword query's list out as it is.  Built once per dataset and
    shared by every vectorized executor over it.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        objects = dataset.objects
        lists: Dict[int, List[int]] = {}
        for position in sorted(range(len(objects)), key=lambda p: objects[p].oid):
            for word in objects[position].doc:
                lists.setdefault(word, []).append(position)
        self.postings: Dict[int, np.ndarray] = {}
        for word, plist in lists.items():
            postings = np.array(plist, dtype=np.int64)
            postings.flags.writeable = False
            self.postings[word] = postings

    # -- vectorized passes ------------------------------------------------------

    def intersect(
        self, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> np.ndarray:
        """``D(w1..wk)`` as an int64 position array, in ascending oid order.

        Mirrors :meth:`InvertedIndex.matching_objects` exactly: the same
        shortest-list-first order (stable sort by list length), the same
        charge totals (one ``objects_examined`` per shortest-list entry, one
        ``structure_probes`` per membership test actually performed — a
        candidate already eliminated by an earlier keyword is never probed
        for a later one), and the same result order.  Each further keyword
        narrows the candidates with one :meth:`holds` pass.  When the total
        would cross the counter's budget, only the scalar loop's charges up
        to the crossing unit land (:meth:`_crossing_charges`).
        """
        counter = ensure_counter(counter)
        words = list(keywords)
        if any(w not in self.postings for w in words):
            return np.empty(0, dtype=np.int64)
        words.sort(key=lambda w: self.postings[w].size)
        shortest = candidates = self.postings[words[0]]
        probes: List[int] = []
        for word in words[1:]:
            live = candidates.size
            if live == 0:
                break
            probes.append(live)
            candidates = candidates[self.holds(candidates, word)]
        examined = shortest.size
        remaining = counter.remaining
        if remaining is not None and examined + sum(probes) > remaining:
            examined, probes = self._crossing_charges(shortest, words[1:], remaining + 1)
        counter.charge("objects_examined", examined)
        for live in probes:
            counter.charge("structure_probes", live)
        return candidates

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
            alive &= self.holds(shortest, word)
        crossing = int(np.searchsorted(np.cumsum(per), units))
        examined = crossing + 1
        return examined, [units - examined] if units > examined else []

    def keyword_filter(
        self, positions: np.ndarray, words: Sequence[int], counter: CostCounter
    ) -> np.ndarray:
        """The positions (in ``dataset.objects``) whose documents hold every
        keyword of ``words``, in the given order.

        Mirrors :meth:`StructuredOnlyIndex._filter
        <repro.core.baselines.StructuredOnlyIndex._filter>`: ``len(words)``
        ``structure_probes`` per position, with no short circuit.  A charge
        that would cross the budget lands as the scalar loop's, which
        charges whole positions: ``(remaining // k + 1) * k``.  Then
        :meth:`holding` narrows the positions.
        """
        k = len(words)
        probes = k * int(positions.size)
        remaining = counter.remaining
        if remaining is not None and probes > remaining:
            probes = (remaining // k + 1) * k
        if probes:
            counter.charge("structure_probes", probes)
        return self.holding(positions, words)

    def holding(self, positions: np.ndarray, words: Sequence[int]) -> np.ndarray:
        """The positions whose documents hold every keyword of ``words``, in
        the given order, uncharged: one :meth:`holds` pass per keyword."""
        for word in words:
            if not positions.size:
                break
            if word not in self.postings:
                return positions[:0]
            positions = positions[self.holds(positions, word)]
        return positions

    def holds(self, positions: np.ndarray, word: int) -> np.ndarray:
        """Which of ``positions`` hold ``word`` (a keyword with postings), as
        a boolean array: the membership test of every pass here.  The
        keyword's :attr:`postings` are marked in a mask over the corpus,
        made for the pass and dropped after it, and the positions read
        it."""
        held = np.zeros(len(self.dataset.objects), dtype=bool)
        held[self.postings[word]] = True
        return held[positions]


class KdTable:
    """A kd-tree's nodes as plain lists, built once for :func:`kd_range`.

    A node's id is its place in the order a walk that prunes nothing pops
    the nodes (the root first, then each right child before its sibling),
    so an internal node ``i``'s right child is ``i + 1`` and only its left
    child's id is stored.  Per node: the cell's corners :attr:`lo` and
    :attr:`hi` (the cell's own tuples), :attr:`left` (0 for a leaf: the
    root is no node's child) and the span :attr:`start`/:attr:`end` of
    :attr:`~repro.kdtree.tree.KdTree.perm`.
    """

    def __init__(self, tree: KdTree):
        self.tree = tree
        self.lo: List[Tuple[float, ...]] = []
        self.hi: List[Tuple[float, ...]] = []
        self.left: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        # (node, its parent's id when it is a left child)
        stack: List[Tuple[KdNode, Optional[int]]] = [(tree.root, None)]
        while stack:
            node, parent = stack.pop()
            if parent is not None:
                self.left[parent] = len(self.left)
            self.lo.append(node.cell.lo)
            self.hi.append(node.cell.hi)
            self.left.append(0)
            self.start.append(node.start)
            self.end.append(node.end)
            if node.children:
                left, right = node.children
                stack.append((left, len(self.left) - 1))
                stack.append((right, None))


def kd_range(table: KdTable, rect: Rect, counter: CostCounter) -> np.ndarray:
    """:meth:`KdTree.range_query <repro.kdtree.tree.KdTree.range_query>` as
    an int array of point indices, in the same order, at the same charges.

    The nodes are walked in Python exactly as the scalar loop walks them,
    over the :class:`KdTable`: pop, one ``nodes_visited``, the
    ``rect.intersects(cell)`` comparisons made inline; a leaf's span is kept
    for testing, an internal node the rectangle covers (``rect.covers``,
    inline) is reported whole, any other node pushes both children.  A
    running total of the scalar loop's units (one per node, one
    ``objects_examined`` per point of a kept span) is compared with
    ``remaining + 1``; where it reaches it — on a node visit, or inside a
    span — the walk stops, and the batch charges below land exactly the
    units the scalar loop charges before it raises, so the last of them
    raises.  Otherwise the kept spans are gathered from
    :attr:`~repro.kdtree.tree.KdTree.perm` in walk order and the leaf spans
    tested in one :meth:`Rect.contains_points` pass.
    """
    tree = table.tree
    rect.require_dim(tree.dim)
    remaining = counter.remaining
    limit = sys.maxsize if remaining is None else remaining + 1
    low, high = rect.lo, rect.hi
    cell_lo, cell_hi, left, start, end = table.lo, table.hi, table.left, table.start, table.end
    axes = range(tree.dim)
    used = examined = 0
    # Per kept span: where it starts in perm less where it starts in the
    # gathered array, its size, and whether it is a leaf (to be tested).
    spans: List[Tuple[int, int, bool]] = []
    stack = [0]
    while stack:
        node = stack.pop()
        used += 1
        if used >= limit:
            break
        lo, hi = cell_lo[node], cell_hi[node]
        for axis in axes:  # rect.intersects(cell)
            if not (low[axis] <= hi[axis] and lo[axis] <= high[axis]):
                break
        else:
            descend = left[node]
            if descend:
                for axis in axes:  # rect.covers(cell)
                    if not (low[axis] <= lo[axis] and hi[axis] <= high[axis]):
                        break
                else:
                    descend = 0
            if descend:
                stack.append(descend)
                stack.append(node + 1)
                continue
            size = end[node] - start[node]
            if used + size >= limit:
                examined += limit - used
                used = limit
                break
            spans.append((start[node] - examined, size, not left[node]))
            used += size
            examined += size
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


class FusedTable:
    """A Theorem-1 index's transform as a flat node table, built once for
    :func:`fused_range`.

    Every pivot set and materialized list is a span of :attr:`positions`,
    one int32 array of positions in ``dataset.objects`` (a rank-space
    object's id is its position).  The lists are laid out node by node,
    each node's pivot set first and then its materialized lists by keyword:
    list ``e`` spans ``ends[e]`` to ``ends[e + 1]``, and ``keys[e]`` is its
    keyword (``None`` for a pivot set).

    A node's id is its place in the order the scalar descent
    (``KeywordTransform._visit_node``) visits the nodes: a node, then each
    child's subtree in turn.  Per node:

    * :attr:`lo`, :attr:`hi` — its rank-space cell's corners;
    * :attr:`combos` — the non-empty k-combinations of the child table that
      leads to it (``None`` at the root);
    * :attr:`large` — its large keywords, or ``None`` where the descent
      probes none (a leaf without materialized lists);
    * :attr:`first` — its pivot set's list; its materialized lists follow,
      up to the next node's ``first``;
    * :attr:`children` — its child ids, the last first, as a stack pushes
      them.

    The table holds the index's tuples and sets, not copies.
    """

    def __init__(self, index: OrpKwIndex):
        self.index = index
        self.lo: List[Tuple[float, ...]] = []
        self.hi: List[Tuple[float, ...]] = []
        self.combos: List[Optional[Set[Tuple[int, ...]]]] = []
        self.large: List[Optional[Set[int]]] = []
        self.first = array("q")
        self.keys: List[Optional[int]] = []
        self.ends = array("q", [0])
        children: List[List[int]] = []
        scanned: List[List[KeywordObject]] = []
        # (node, the combinations on the edge into it, its parent's id)
        stack: List[Tuple[TransformNode, Optional[Set[Tuple[int, ...]]], Optional[int]]] = [
            (index.transform.root, None, None)
        ]
        while stack:
            node, combos, parent = stack.pop()
            if parent is not None:
                children[parent].append(len(children))
            self.lo.append(node.cell.lo)
            self.hi.append(node.cell.hi)
            self.combos.append(combos)
            self.large.append(node.large if node.children or node.materialized else None)
            self.first.append(len(self.keys))
            self.keys.append(None)
            scanned.append(node.pivot)
            for word in sorted(node.materialized):
                self.keys.append(word)
                scanned.append(node.materialized[word])
            children.append([])
            node_id = len(children) - 1
            for child, child_combos in reversed(list(zip(node.children, node.combos))):
                stack.append((child, child_combos, node_id))
        self.first.append(len(self.keys))
        for objects in scanned:
            self.ends.append(self.ends[-1] + len(objects))
        self.children: List[Tuple[int, ...]] = [tuple(reversed(ids)) for ids in children]
        self.positions = np.fromiter(
            (obj.oid for objects in scanned for obj in objects),
            dtype=np.int32, count=self.ends[-1],
        )


def fused_range(
    table: FusedTable, rank_rect: Rect, words: Sequence[int], counter: CostCounter
) -> np.ndarray:
    """The positions the scalar Theorem-1 descent scans, in its order, at
    its charges.

    Walks the :class:`FusedTable` as ``KeywordTransform._visit_node`` walks
    the transform's nodes.  A node costs one ``nodes_visited``.  A node
    with large keywords costs ``k`` ``structure_probes``; if a query
    keyword is small there, its materialized list is scanned and the node
    is done.  Otherwise the node's pivot set is scanned and each child's
    k-combination table probed (one ``structure_probes``), and the walk
    descends into a child whose table holds the query's combination and
    whose cell meets ``rank_rect`` (``Rect.intersects``'s comparisons,
    inline).  A scanned list costs one ``objects_examined`` per object.

    A running total of those units is compared with ``remaining + 1``, as
    in :func:`kd_range`; a ``k``-unit probe crosses whole, as the scalar
    charge does, so only it can carry the total past that.  The batches are
    charged with ``structure_probes`` last: every other crossing stops the
    total at exactly ``remaining + 1``, so whichever batch lands last
    raises, and a probe that crosses past it lands after every other unit.
    The scanned spans come back gathered in walk order, for the caller to
    test against the rectangle and the keywords, which the scalar path
    does without a charge.
    """
    k = len(words)
    key = tuple(sorted(words))
    remaining = counter.remaining
    limit = sys.maxsize if remaining is None else remaining + 1
    low, high = rank_rect.lo, rank_rect.hi
    cell_lo, cell_hi, combos, large = table.lo, table.hi, table.combos, table.large
    first, keys, ends, children = table.first, table.keys, table.ends, table.children
    axes = range(len(low))
    used = nodes = probes = examined = 0
    spans: List[Tuple[int, int]] = []
    stack = [0]
    while stack:
        node = stack.pop()
        if node:  # the probe of the child table that leads here (not at the root)
            used += 1
            probes += 1
            if used >= limit:
                break
            if key not in combos[node]:
                continue
            lo, hi = cell_lo[node], cell_hi[node]
            meets = True
            for axis in axes:  # rank_rect.intersects(cell)
                if not (low[axis] <= hi[axis] and lo[axis] <= high[axis]):
                    meets = False
                    break
            if not meets:
                continue
        used += 1
        nodes += 1
        if used >= limit:
            break
        small = None
        held = large[node]
        if held is not None:
            used += k
            probes += k
            if used >= limit:
                break
            for word in words:
                if word not in held:
                    small = word
                    break
        scan = first[node]  # the pivot set
        if small is not None:  # the small keyword's list instead, if it has one
            stop = first[node + 1]
            scan = bisect_left(keys, small, scan + 1, stop)
            if scan == stop or keys[scan] != small:
                continue
        start, end = ends[scan], ends[scan + 1]
        size = end - start
        if used + size >= limit:
            examined += limit - used
            break
        if size:
            spans.append((start, end))
            used += size
            examined += size
        if small is None:
            stack.extend(children[node])
    counter.charge("nodes_visited", nodes)
    if examined:
        counter.charge("objects_examined", examined)
    if probes:
        counter.charge("structure_probes", probes)
    positions = table.positions
    if not spans:
        return positions[:0]
    return np.concatenate([positions[start:end] for start, end in spans])


def charge_filter(counter: CostCounter, candidates: int) -> None:
    """Charge a batched post-filter's ``comparisons``: one per candidate,
    the scalar loop's charge.  Under a budget the pass would cross, only
    ``remaining + 1`` land — where the scalar loop raises."""
    remaining = counter.remaining
    if remaining is not None:
        candidates = min(candidates, remaining + 1)
    counter.charge("comparisons", candidates)

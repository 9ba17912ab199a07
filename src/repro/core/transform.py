"""The index-transformation framework of §3, generic over the tree.

The paper's "primary technical contribution is a generic framework" that
converts a *space-partitioning* geometry index into one that also supports
keyword predicates.  This module is that framework, parameterized by the
underlying tree (kd-tree for Theorem 1, partition tree for Theorem 12):

Step 1 — the caller supplies a space-partitioning tree built on the
*verbose set* ``P`` (every object replicated ``|e.Doc|`` times), so that
``N_u <= |P_u|`` holds at every node.

Step 2 — objects are distributed over the tree: an object in a node's
active set is *pushed down* into the child whose cell interior contains it;
objects landing on a child-cell boundary join the node's *pivot set*.
Keywords are classified large/small per node and small keywords'
active lists are materialized (see :mod:`repro.core.keywords`).  On a
kd-tree every active object lies in its node's open cell, so one comparison
on the split axis places it: below the split value it goes left, above it
right, and on it it is a pivot.

Step 3 — queries descend from the root: pivot sets are scanned at every
visited node; descent continues into a child only when all ``k`` query
keywords are large, their combination is non-empty in the child, and the
query region intersects the child's cell.  When some keyword is small, its
materialized list is scanned and the descent stops.

Step 4 — general position is the caller's responsibility (rank space for
ORP-KW, §3.4; index-order tie-breaking inside the tree builders otherwise).

The framework stops *storing* structure below any node where fewer than
``k`` keywords are large: no query can descend past such a node (a query
needs ``k`` distinct large keywords to continue), so children, emptiness
tables and deeper materialized lists would be dead weight.  A kd-tree is
therefore split only as deep as the build descends (:meth:`KdTree.split
<repro.kdtree.tree.KdTree.split>` on a lazy tree), and the transform keeps no
reference to the tree once built: its nodes carry the cells they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple  # noqa: F401

from ..costmodel import CostCounter, ensure_counter
from ..dataset import KeywordObject
from ..geometry.rectangles import Rect
from ..kdtree.tree import KdNode
from .keywords import large_small_split, node_weight, nonempty_combinations


def _interior_contains(cell, point: Sequence[float]) -> bool:
    """Open (interior) membership of ``point`` in ``cell``."""
    if isinstance(cell, Rect):
        return cell.interior_contains(point)
    return all(h.strictly_contains(point) for h in cell.halfspaces)


def _push_down(tree, tree_node, active: List[KeywordObject]):
    """Split ``tree_node``'s active objects over its children.

    Returns the children, one bucket of objects per child, and the pivots.
    A kd node is split here, on first use, and each object is placed by one
    comparison on the split axis; that matches the open-cell test exactly
    because every active object lies in its node's open cell.  A partition
    tree is built whole and its convex cells take the generic test.
    """
    pivot: List[KeywordObject] = []
    if isinstance(tree_node, KdNode):
        children = tree.split(tree_node)
        if not children:
            return children, [], pivot
        left: List[KeywordObject] = []
        right: List[KeywordObject] = []
        axis, value = tree_node.axis, tree_node.split_value
        for obj in active:
            coord = obj.point[axis]
            if coord < value:
                left.append(obj)
            elif coord > value:
                right.append(obj)
            else:
                pivot.append(obj)
        return children, [left, right], pivot
    children = tree_node.children
    child_cells = [child.cell for child in children]
    buckets: List[List[KeywordObject]] = [[] for _ in child_cells]
    for obj in active:
        for child_idx, cell in enumerate(child_cells):
            if _interior_contains(cell, obj.point):
                buckets[child_idx].append(obj)
                break
        else:
            pivot.append(obj)
    return children, buckets, pivot


class _SearchDone(Exception):
    """Internal: raised to unwind once ``max_report`` results are collected."""


class TransformNode:
    """A node of the transformed index (mirrors a prefix of the tree)."""

    __slots__ = (
        "cell",
        "level",
        "weight",
        "children",
        "pivot",
        "large",
        "combos",
        "materialized",
    )

    def __init__(self, cell, level: int, weight: int):
        self.cell = cell
        self.level = level
        #: the paper's N_u.
        self.weight = weight
        self.children: List["TransformNode"] = []
        #: the pivot set D_pvt_u (objects stored at this node).
        self.pivot: List[KeywordObject] = []
        #: keywords large at this node.
        self.large: Set[int] = set()
        #: per-child non-empty k-combination tables.
        self.combos: List[Set[Tuple[int, ...]]] = []
        #: materialized small-keyword lists D_act_u(w).
        self.materialized: Dict[int, List[KeywordObject]] = {}

    @property
    def is_terminal(self) -> bool:
        return not self.children


@dataclass
class QueryStats:
    """Optional per-query structural statistics (for the F1/F2 benches and
    the ``explain`` facility).

    ``crossing_leaf_power_sum`` is the paper's crossing sensitivity summand
    ``Σ N_z^(1-1/k)`` over the crossing leaves of the query tree (eq. (7)).
    """

    covered_nodes: int = 0
    crossing_nodes: int = 0
    crossing_leaf_power_sum: float = 0.0
    visited_levels: List[int] = field(default_factory=list)
    #: nodes where the query took the small-keyword materialized-scan branch.
    materialized_scans: int = 0
    #: objects read from materialized lists.
    materialized_objects: int = 0
    #: objects read from pivot sets.
    pivot_objects: int = 0
    #: child descents skipped because the k-combination was empty.
    combo_rejections: int = 0
    #: child descents skipped because the cell missed the query region.
    cell_rejections: int = 0

    def per_level_counts(self) -> Dict[int, int]:
        """Visited-node histogram keyed by tree level."""
        histogram: Dict[int, int] = {}
        for level in self.visited_levels:
            histogram[level] = histogram.get(level, 0) + 1
        return histogram

    def describe(self) -> str:
        """Human-readable multi-line explanation of where the query went."""
        lines = [
            f"visited nodes       : {len(self.visited_levels)} "
            f"(covered {self.covered_nodes}, crossing {self.crossing_nodes})",
            f"pivot objects read  : {self.pivot_objects}",
            f"materialized scans  : {self.materialized_scans} "
            f"({self.materialized_objects} objects)",
            f"descents pruned     : {self.combo_rejections} by emptiness "
            f"tables, {self.cell_rejections} by geometry",
            f"crossing power sum  : {self.crossing_leaf_power_sum:.1f} "
            f"(Lemma 10 quantity)",
        ]
        histogram = self.per_level_counts()
        if histogram:
            spread = ", ".join(
                f"L{level}:{count}" for level, count in sorted(histogram.items())
            )
            lines.append(f"nodes per level     : {spread}")
        return "\n".join(lines)


class KeywordTransform:
    """Keyword-aware index built from a space-partitioning tree.

    Parameters
    ----------
    objects:
        The dataset ``D``.
    tree:
        A :class:`~repro.kdtree.tree.KdTree` or a built
        :class:`~repro.partitiontree.tree.PartitionTree` over the verbose
        point set of ``objects`` (callers use :func:`verbose_points`).  The
        build splits a kd-tree where it descends, so pass it lazy to build
        only the nodes the transform keeps; every object must lie in the
        open root cell, as it does for the kd-tree's default root cell.  The
        transform does not keep the tree.
    k:
        Fixed number of query keywords (``>= 2``).
    threshold_scale:
        Multiplier applied to the large/small threshold ``N_u^(1-1/k)``.
        The paper's choice is ``1.0``; other values exist only for the A2
        ablation benchmark.
    component:
        Label used for this index's spans when the query counter carries a
        :class:`~repro.trace.Tracer` (``"orp_kw"`` for the kd-tree route,
        ``"sp_kw"`` for the partition-tree route).
    """

    def __init__(
        self,
        objects: Sequence[KeywordObject],
        tree,
        k: int,
        threshold_scale: float = 1.0,
        component: str = "transform",
    ):
        self.k = k
        self.component = component
        self.objects = list(objects)
        self.threshold_scale = threshold_scale
        self.input_size = node_weight(self.objects)
        candidates = set()
        for obj in self.objects:
            candidates.update(obj.doc)
        self.root = self._build(tree, tree.root, self.objects, candidates)

    # -- construction (§3.2) ------------------------------------------------------

    def _build(
        self,
        tree,
        tree_node,
        active: List[KeywordObject],
        candidates: Set[int],
    ) -> TransformNode:
        weight = node_weight(active)
        node = TransformNode(tree_node.cell, tree_node.level, weight)
        if not active:
            return node

        # Distribute: push each object into the unique child whose cell
        # interior contains it; boundary objects become pivots.
        children, buckets, pivot = _push_down(tree, tree_node, active)
        if not children:
            # True leaf: the pivot set is the whole active set.
            node.pivot = active
            return node
        node.pivot = pivot

        large, materialized = self._classify(active, candidates, weight)
        node.large = large
        node.materialized = materialized

        if len(large) < self.k:
            # No query can descend (it would need k distinct large keywords);
            # everything below is covered by the materialized lists.
            return node

        for child_tree_node, bucket in zip(children, buckets):
            child = self._build(tree, child_tree_node, bucket, set(large))
            node.children.append(child)
            node.combos.append(nonempty_combinations(bucket, large, self.k))
        return node

    def _classify(
        self,
        active: Sequence[KeywordObject],
        candidates: Set[int],
        weight: int,
    ) -> Tuple[Set[int], Dict[int, List[KeywordObject]]]:
        if self.threshold_scale == 1.0:
            return large_small_split(active, candidates, weight, self.k)
        # Ablation path: rescale the threshold by pretending the weight is
        # (scale * N_u^(1-1/k))^(k/(k-1)).
        effective = (
            self.threshold_scale * weight ** (1.0 - 1.0 / self.k)
        ) ** (self.k / (self.k - 1.0))
        return large_small_split(active, candidates, max(int(effective), 1), self.k)

    # -- queries (§3.3) -------------------------------------------------------------

    def query(
        self,
        region,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> List[KeywordObject]:
        """Report every object in ``region`` whose document has all keywords.

        ``region`` is any object from :mod:`repro.geometry.regions` with the
        same dimensionality as the data.  ``max_report`` stops the search
        once that many results are found (used by the budgeted NN probes).
        May raise :class:`~repro.errors.BudgetExceeded` if ``counter`` has a
        budget.
        """
        counter = ensure_counter(counter)
        words = tuple(keywords)
        result: List[KeywordObject] = []
        try:
            self._visit(self.root, region, words, result, counter, max_report, stats)
        except _SearchDone:
            pass
        return result

    def _visit(
        self,
        node: TransformNode,
        region,
        words: Tuple[int, ...],
        result: List[KeywordObject],
        counter: CostCounter,
        max_report: Optional[int],
        stats: Optional[QueryStats],
    ) -> None:
        # Depth-keyed span: all nodes visited at this level (under the same
        # ancestor chain) aggregate into one span, so the span tree is a
        # chain mirroring the recursion depth, not one span per node.  The
        # None-guard keeps the untraced hot path at a single attribute load.
        tracer = counter.tracer
        if tracer is None:
            self._visit_node(node, region, words, result, counter, max_report, stats)
            return
        tracer.push(f"depth={node.level}", self.component)
        try:
            self._visit_node(node, region, words, result, counter, max_report, stats)
        finally:
            tracer.pop()

    def _visit_node(
        self,
        node: TransformNode,
        region,
        words: Tuple[int, ...],
        result: List[KeywordObject],
        counter: CostCounter,
        max_report: Optional[int],
        stats: Optional[QueryStats],
    ) -> None:
        counter.charge("nodes_visited")
        if stats is not None:
            stats.visited_levels.append(node.level)
            if region.covers(node.cell):
                stats.covered_nodes += 1
            else:
                stats.crossing_nodes += 1
                if node.is_terminal or not all(w in node.large for w in words):
                    exponent = 1.0 - 1.0 / self.k
                    stats.crossing_leaf_power_sum += node.weight ** exponent

        if not node.is_terminal or node.materialized:
            counter.charge("structure_probes", len(words))
            small = next((w for w in words if w not in node.large), None)
            if small is not None:
                # D_act_u(small) covers every relevant object at or below u —
                # including u's own pivots — so scan it *instead of* the pivot
                # set (scanning both would double-report pivot objects).
                if stats is not None:
                    stats.materialized_scans += 1
                    stats.materialized_objects += len(node.materialized.get(small, ()))
                for obj in node.materialized.get(small, ()):
                    counter.charge("objects_examined")
                    if region.contains_point(obj.point) and obj.doc.issuperset(words):
                        self._report(obj, result, max_report)
                return

        if stats is not None:
            stats.pivot_objects += len(node.pivot)
        for obj in node.pivot:
            counter.charge("objects_examined")
            if region.contains_point(obj.point) and obj.doc.issuperset(words):
                self._report(obj, result, max_report)

        key = tuple(sorted(words))
        for child, combos in zip(node.children, node.combos):
            counter.charge("structure_probes")
            if key not in combos:
                if stats is not None:
                    stats.combo_rejections += 1
                continue
            if not region.intersects(child.cell):
                if stats is not None:
                    stats.cell_rejections += 1
                continue
            self._visit(child, region, words, result, counter, max_report, stats)

    @staticmethod
    def _report(
        obj: KeywordObject, result: List[KeywordObject], max_report: Optional[int]
    ) -> None:
        result.append(obj)
        if max_report is not None and len(result) >= max_report:
            raise _SearchDone

    # -- introspection -----------------------------------------------------------------

    @property
    def space_units(self) -> int:
        """Stored entries: pivots, large sets, combos, materialized lists, nodes."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1 + len(node.pivot) + len(node.large)
            total += sum(len(c) for c in node.combos)
            total += sum(len(lst) for lst in node.materialized.values())
            stack.extend(node.children)
        return total

    def space_units_excluding(self, dead) -> int:
        """Stored entries as :attr:`space_units`, minus ``dead`` objects' own.

        ``dead`` is a set of object ids from this transform's build dataset.
        Pivot and materialized-list slots belong to a single object and are
        skipped when that object is dead; node, large-set, and combination
        entries are keyword-level structure shared by live and dead objects
        alike and stay counted.  The dynamized wrapper uses this to report
        live-object space between tombstone rebuilds.
        """
        if not dead:
            return self.space_units
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1 + len(node.large)
            total += sum(1 for obj in node.pivot if obj.oid not in dead)
            total += sum(len(c) for c in node.combos)
            total += sum(
                sum(1 for obj in lst if obj.oid not in dead)
                for lst in node.materialized.values()
            )
            stack.extend(node.children)
        return total

    def node_count(self) -> int:
        """Number of transform nodes actually stored."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def max_pivot_size(self) -> int:
        """Largest pivot set over internal nodes (general-position check)."""
        best = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_terminal:
                best = max(best, len(node.pivot))
            stack.extend(node.children)
        return best


def verbose_points(objects: Sequence[KeywordObject]) -> List[Tuple[float, ...]]:
    """The verbose set ``P`` of §3.2: ``|e.Doc|`` copies of each object's point.

    The tree is built on these points so that every node's active document
    mass ``N_u`` is dominated by its subtree size ``|P_u|``, which is what
    turns tree balance into the ``N_u = O(N / 2^level)`` decay the analysis
    needs.
    """
    points: List[Tuple[float, ...]] = []
    for obj in objects:
        points.extend([obj.point] * len(obj.doc))
    return points

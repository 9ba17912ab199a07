"""The kd-tree (§3.1).

Built on a (multi)set ``P`` of points in R^d:

* every node ``u`` carries a closed rectangular cell ``Δ_u`` covering all the
  points in its subtree;
* the root cell covers the whole space (here: a caller-supplied universe
  rectangle enclosing all data — equivalent for every query that matters,
  since only data points can be reported);
* an internal node at level ``ℓ`` splits its cell with an axis-parallel
  hyperplane orthogonal to axis ``ℓ mod d``, placed at the median of its
  points; the child cells touch only at the splitting hyperplane and are
  interior disjoint.

Splitting at the *index* median (rather than a value median) keeps the exact
balance invariant ``|P_u| <= ceil(|P|/2^level)`` even when coordinates repeat
— repeats are what the verbose set of §3.2 produces, so this matters.

The build uses ``numpy.argpartition`` per node, giving an
``O(|P| log |P|)``-time construction with C-speed partitioning.  It
partitions one permutation of the point indices in place, so the points of
every subtree sit contiguously in :attr:`KdTree.perm` in subtree order, and
each node keeps its ``(start, end)`` span of it: a leaf's points and
:meth:`KdTree.subtree_indices` are slices, not concatenations.

One split is :meth:`KdTree.split`, and the eager build applies it to every
node.  A split permutes only its node's own span, so a node's children do
not depend on when, or whether, any other node is split: a tree built with
``lazy=True`` and split only where a caller descends (the keyword transform
of :mod:`repro.core.transform` does) holds exactly the eager tree's nodes on
those paths.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..costmodel import CostCounter, ensure_counter
from ..errors import ValidationError
from ..geometry.rectangles import Rect


class KdNode:
    """One node of a kd-tree.

    ``start``/``end`` delimit the subtree's points in the tree's
    :attr:`KdTree.perm`.
    """

    __slots__ = ("cell", "level", "axis", "split_value", "children", "start", "end")

    def __init__(self, cell: Rect, level: int, start: int, end: int):
        self.cell = cell
        self.level = level
        self.axis: int = -1
        self.split_value: float = float("nan")
        self.children: List["KdNode"] = []
        self.start = start
        self.end = end

    @property
    def size(self) -> int:
        """|P_u| — number of points in the subtree."""
        return self.end - self.start

    @property
    def is_leaf(self) -> bool:
        return not self.children


class KdTree:
    """kd-tree over ``points`` (an ``(n, d)`` array; duplicates allowed).

    ``lazy=True`` builds the root alone, and :meth:`split` grows the tree one
    node at a time.  The queries below walk whatever has been split, so they
    are for eager trees.
    """

    def __init__(
        self,
        points: Sequence[Sequence[float]],
        leaf_size: int = 1,
        root_cell: Optional[Rect] = None,
        lazy: bool = False,
    ):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValidationError("points must be a non-empty (n, d) array")
        if leaf_size < 1:
            raise ValidationError(f"leaf_size must be >= 1, got {leaf_size}")
        self.points = arr
        self.dim = arr.shape[1]
        self.leaf_size = leaf_size
        if root_cell is None:
            lo = arr.min(axis=0) - 1.0
            hi = arr.max(axis=0) + 1.0
            root_cell = Rect(lo, hi)
        if root_cell.dim != self.dim:
            raise ValidationError("root cell dimensionality mismatch")
        #: The point indices, permuted so that every node's subtree is the
        #: contiguous span ``perm[node.start:node.end]``.
        self.perm = np.arange(arr.shape[0])
        self.root = KdNode(root_cell, 0, 0, arr.shape[0])
        if not lazy:
            stack = [self.root]
            while stack:
                stack.extend(self.split(stack.pop()))

    # -- construction ------------------------------------------------------------

    def split(self, node: KdNode) -> List[KdNode]:
        """Split ``node`` at the index median of its points, once, and return
        its children; a node of at most ``leaf_size`` points is a leaf and has
        none."""
        if node.children or node.size <= self.leaf_size:
            return node.children
        start, end, cell = node.start, node.end, node.cell
        axis = node.level % self.dim
        mid = (end - start) // 2
        indices = self.perm[start:end]
        order = np.argpartition(self.points[indices, axis], mid)
        indices[:] = indices[order]
        split_value = float(self.points[indices[mid], axis])
        # Clamp into the cell (repeated coordinates can push the median onto
        # the cell boundary; the split degenerates gracefully).
        split_value = min(max(split_value, cell.lo[axis]), cell.hi[axis])
        node.axis = axis
        node.split_value = split_value
        left_cell, right_cell = cell.split(axis, split_value)
        node.children = [
            KdNode(left_cell, node.level + 1, start, start + mid),
            KdNode(right_cell, node.level + 1, start + mid, end),
        ]
        return node.children

    # -- traversal ---------------------------------------------------------------

    def nodes(self) -> Iterator[KdNode]:
        """Yield every node, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def height(self) -> int:
        """Maximum level over all nodes."""
        return max(node.level for node in self.nodes())

    def subtree_indices(self, node: KdNode) -> np.ndarray:
        """All point indices stored under ``node``, in subtree order (a view
        of :attr:`perm`)."""
        return self.perm[node.start:node.end]

    # -- classic range reporting (the "structured only" baseline) -----------------

    def range_query(
        self, rect: Rect, counter: Optional[CostCounter] = None
    ) -> List[int]:
        """Classic orthogonal range reporting: indices of points in ``rect``.

        Standard kd-tree analysis: ``O(n^(1-1/d) + OUT)`` node visits for a
        d-dimensional tree on ``n`` points.
        """
        rect.require_dim(self.dim)
        counter = ensure_counter(counter)
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.charge("nodes_visited")
            if not rect.intersects(node.cell):
                continue
            if node.is_leaf:
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    if rect.contains_point(self.points[idx]):
                        result.append(int(idx))
                continue
            if rect.covers(node.cell):
                # Covered subtree: every point qualifies; pay output cost only.
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    result.append(int(idx))
                continue
            stack.extend(node.children)
        return result

    def region_query(
        self, region, counter: Optional[CostCounter] = None
    ) -> List[int]:
        """Report indices of points inside an arbitrary convex ``region``.

        ``region`` is any object of :mod:`repro.geometry.regions`.  Used by
        the "structured only" baselines for non-rectangular predicates.
        """
        counter = ensure_counter(counter)
        result: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            counter.charge("nodes_visited")
            if not region.intersects(node.cell):
                continue
            if region.covers(node.cell):
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    result.append(int(idx))
                continue
            if node.is_leaf:
                for idx in self.subtree_indices(node):
                    counter.charge("objects_examined")
                    if region.contains_point(self.points[idx]):
                        result.append(int(idx))
                continue
            stack.extend(node.children)
        return result

    def count_crossing_nodes(self, rect: Rect) -> int:
        """Number of nodes whose cells intersect but are not covered by ``rect``.

        This is ``|T_cross|`` of §3.3, the quantity Figure 1's compaction
        argument bounds; exposed for the F1 benchmark.
        """
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.cell) or rect.covers(node.cell):
                continue
            count += 1
            stack.extend(node.children)
        return count

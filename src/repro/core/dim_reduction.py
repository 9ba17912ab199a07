"""ORP-KW in d >= 3 dimensions: the dimension-reduction technique of §4.

Theorem 2 / Lemma 11: given a (d-1)-dimensional ORP-KW index with query time
``O(N^(1-1/k) (1 + OUT^(1/k)))``, one can build a d-dimensional index that
pays only an extra ``O(log log N)`` factor in space and nothing in query
time.  The construction:

* a tree ``T`` over the x-dimension whose node at level ``ℓ`` performs an
  *f-balanced cut* with fanout ``f_u = 2 * 2^(k^ℓ)`` (equation (10)) —
  consecutive weight-balanced groups separated by single pivot objects;
* the doubly-exponential fanout makes ``T`` only ``O(log log N)`` deep
  (Proposition 1) and bounds every fanout by ``O(N^(1-1/k))``
  (Proposition 3);
* every node stores a (d-1)-dimensional secondary ORP-KW index on its
  active set with the x-dimension dropped.

A query splits the visited nodes into *type-1* (x-range ``σ(u)`` contained in
the query's x-interval → answered wholly by the secondary index) and
*type-2* (partial overlap → scan the pivot set, recurse); each level has at
most two type-2 nodes (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from .orp_kw import OrpKwIndex


@dataclass
class DrStats:
    """Per-query structural statistics for the F2 benchmark."""

    type1_per_level: Dict[int, int] = field(default_factory=dict)
    type2_per_level: Dict[int, int] = field(default_factory=dict)

    def record(self, level: int, is_type1: bool) -> None:
        table = self.type1_per_level if is_type1 else self.type2_per_level
        table[level] = table.get(level, 0) + 1

    @property
    def type1_nodes(self) -> int:
        return sum(self.type1_per_level.values())

    @property
    def type2_nodes(self) -> int:
        return sum(self.type2_per_level.values())


class _DrNode:
    """A node of the balanced-cut tree."""

    __slots__ = ("level", "fanout", "sigma", "pivot", "children", "secondary", "weight")

    def __init__(self, level: int, fanout: int, sigma: Tuple[float, float], weight: int):
        self.level = level
        self.fanout = fanout  # the paper's f_u
        self.sigma = sigma  # tightest x-interval of the active set
        self.pivot: List[KeywordObject] = []
        self.children: List["_DrNode"] = []
        self.secondary = None  # (d-1)-dimensional index on the active set
        self.weight = weight

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DimReductionOrpKw:
    """The Theorem-2 ORP-KW index for ``d >= 3``."""

    def __init__(self, dataset: Dataset, k: int):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        if dataset.dim < 3:
            raise ValidationError(
                f"dimension-reduction index needs d >= 3 (got d={dataset.dim}); "
                "use OrpKwIndex for d <= 2"
            )
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim
        self.input_size = dataset.total_doc_size
        self._originals = {obj.oid: obj for obj in dataset.objects}
        self.root = self._build(list(dataset.objects), 0)

    # -- construction -----------------------------------------------------------

    def _fanout(self, level: int) -> int:
        """Equation (10): ``f_u = 2 * 2^(k^level)`` (capped to stay finite)."""
        exponent = min(self.k ** level, 60)
        return 2 * (2 ** exponent)

    def _build(self, active: List[KeywordObject], level: int) -> _DrNode:
        weight = Dataset.weight(active)
        xs = [obj.point[0] for obj in active]
        node = _DrNode(level, self._fanout(level), (min(xs), max(xs)), weight)

        # f-balanced cut (footnote 13): scan in x-order, greedily pack groups
        # of weight <= weight/f, separated by single pivot objects.
        ordered = sorted(active, key=lambda obj: (obj.point[0], obj.oid))
        cap = weight / node.fanout
        groups: List[List[KeywordObject]] = []
        current: List[KeywordObject] = []
        current_weight = 0
        for obj in ordered:
            if current_weight + len(obj.doc) <= cap:
                current.append(obj)
                current_weight += len(obj.doc)
            else:
                # Each separator closes a group with group+separator weight
                # strictly above weight/f, so at most f-1 separators occur
                # before the remaining mass fits in the final group.
                groups.append(current)
                node.pivot.append(obj)  # the separator e*_i
                current = []
                current_weight = 0
        groups.append(current)

        node.secondary = self._make_secondary(active)
        for group in groups:
            if group:
                node.children.append(self._build(group, level + 1))
        return node

    def _make_secondary(self, active: Sequence[KeywordObject]):
        """The (d-1)-dimensional ORP-KW index on ``active`` minus the x-axis."""
        projected = [
            KeywordObject(oid=obj.oid, point=obj.point[1:], doc=obj.doc)
            for obj in active
        ]
        sub = Dataset(projected)
        if sub.dim >= 3:
            return DimReductionOrpKw(sub, self.k)
        return OrpKwIndex(sub, self.k)

    # -- queries ------------------------------------------------------------------

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[DrStats] = None,
    ) -> List[KeywordObject]:
        """Report ``q ∩ D(w1..wk)`` for the d-rectangle ``rect``."""
        rect.require_dim(self.dim)
        words = validate_query_keywords(keywords, self.k)
        counter = ensure_counter(counter)
        result: List[KeywordObject] = []
        self._visit(self.root, rect, words, result, counter, max_report, stats)
        return [self._originals[obj.oid] for obj in result]

    def _visit(
        self,
        node: _DrNode,
        rect: Rect,
        words: Tuple[int, ...],
        result: List[KeywordObject],
        counter: CostCounter,
        max_report: Optional[int],
        stats: Optional[DrStats],
    ) -> None:
        tracer = counter.tracer
        if tracer is None:
            self._visit_node(node, rect, words, result, counter, max_report, stats)
            return
        # One aggregated span per balanced-cut level; the x-level prefix keeps
        # these distinct from the depth=… spans of nested secondary indexes.
        tracer.push(f"x-level={node.level}", "dim_reduction")
        try:
            self._visit_node(node, rect, words, result, counter, max_report, stats)
        finally:
            tracer.pop()

    def _visit_node(
        self,
        node: _DrNode,
        rect: Rect,
        words: Tuple[int, ...],
        result: List[KeywordObject],
        counter: CostCounter,
        max_report: Optional[int],
        stats: Optional[DrStats],
    ) -> None:
        if max_report is not None and len(result) >= max_report:
            return
        counter.charge("nodes_visited")
        q_lo, q_hi = rect.lo[0], rect.hi[0]
        s_lo, s_hi = node.sigma

        if q_lo <= s_lo and s_hi <= q_hi:
            # Type 1: x-range swallowed; the secondary index answers exactly.
            if stats is not None:
                stats.record(node.level, is_type1=True)
            sub_rect = Rect(rect.lo[1:], rect.hi[1:])
            remaining = None if max_report is None else max_report - len(result)
            found = node.secondary.query(
                sub_rect, words, counter, max_report=remaining
            )
            result.extend(found)
            return

        # Type 2: partial overlap; scan pivots and recurse into overlapping
        # children.
        if stats is not None:
            stats.record(node.level, is_type1=False)
        for obj in node.pivot:
            counter.charge("objects_examined")
            if rect.contains_point(obj.point) and obj.doc.issuperset(words):
                result.append(obj)
                if max_report is not None and len(result) >= max_report:
                    return
        for child in node.children:
            c_lo, c_hi = child.sigma
            counter.charge("comparisons")
            if c_lo <= q_hi and q_lo <= c_hi:
                self._visit(child, rect, words, result, counter, max_report, stats)
                if max_report is not None and len(result) >= max_report:
                    return

    def is_empty(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> bool:
        """Budgeted emptiness (footnote 4) on the d >= 3 index."""
        budget = int(PROBE_FACTOR * (8 + self.input_size ** (1.0 - 1.0 / self.k)))
        found, _ = ensure_counter(counter).attempt(
            budget, lambda probe: self.query(rect, keywords, probe, max_report=1)
        )
        return found == []

    # -- introspection ---------------------------------------------------------------

    @property
    def space_units(self) -> int:
        """Stored entries including all nested secondary structures."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1 + len(node.pivot)
            if node.secondary is not None:
                total += node.secondary.space_units
            stack.extend(node.children)
        return total

    def height(self) -> int:
        """Levels of the balanced-cut tree (should be O(log log N))."""

        def depth(node: _DrNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(depth(c) for c in node.children)

        return depth(self.root)

    def per_level_counts(
        self,
        rect: Optional[Rect] = None,
        keywords: Sequence[int] = (1, 2),
    ) -> Dict[str, Dict[int, int]]:
        """Per-level structural counts of the balanced-cut tree.

        Always reports ``nodes`` (node count per level).  With a query
        rectangle, additionally runs one stats-collecting query and reports
        ``type1``/``type2`` — the Figure-2 split, whose per-level type-2
        counts Propositions 1-3 bound by two.
        """
        nodes: Dict[int, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes[node.level] = nodes.get(node.level, 0) + 1
            stack.extend(node.children)
        counts: Dict[str, Dict[int, int]] = {"nodes": nodes}
        if rect is not None:
            stats = DrStats()
            self.query(rect, keywords, stats=stats)
            counts["type1"] = dict(stats.type1_per_level)
            counts["type2"] = dict(stats.type2_per_level)
        return counts

    def max_fanout(self) -> int:
        """Largest realized fanout (Proposition 3: O(N^(1-1/k)))."""
        best = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            best = max(best, len(node.children) + len(node.pivot))
            stack.extend(node.children)
        return best

"""A Cohen–Porat-style k-set-intersection index.

§3.5 of the paper credits Cohen and Porat [23] with the 2-SI index that
inspired the whole framework: classify keywords as *large* or *small*
relative to the data mass under each node of a balanced recursion, store a
hash table of the large keywords plus an emptiness table of their
combinations, and materialize a keyword's posting list at the (unique) node
where it turns small.

This module implements that structure directly over an abstract set family,
generalized from ``k = 2`` to any fixed ``k >= 2`` — i.e. a *pure keyword
search* index with no geometry.  It achieves ``O(N)`` space and
``O(N^(1-1/k) * (1 + OUT^(1/k)))`` reporting time, the bounds that §1.2
argues are essentially optimal under the strong set-intersection and strong
k-set-disjointness conjectures.

The recursion tree here is a weight-balanced binary tree over the elements
in id order — the degenerate, geometry-free special case of the paper's
kd-tree transformation (§3.2).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..costmodel import KSI_PROBE_FACTOR, CostCounter, ensure_counter
from ..errors import ValidationError
from ..trace import span_for
from .naive import sets_to_documents


class _Node:
    """One node of the large/small recursion."""

    __slots__ = ("start", "stop", "weight", "children", "large", "combos", "materialized")

    def __init__(self, start: int, stop: int, weight: int):
        self.start = start
        self.stop = stop
        self.weight = weight  # the paper's N_u
        self.children: List["_Node"] = []
        self.large: Set[int] = set()
        # combos[child_index] = set of sorted k-tuples of large keywords whose
        # intersection restricted to that child is non-empty.
        self.combos: List[Set[Tuple[int, ...]]] = []
        # materialized[w] = element indices under this node containing w,
        # stored at the unique node where w turns small (paper §3.2).
        self.materialized: Dict[int, List[int]] = {}

    @property
    def is_leaf(self) -> bool:
        return not self.children


class KSetIndex:
    """k-SI reporting/emptiness index with the large/small recursion.

    Parameters
    ----------
    sets:
        The input family ``S_1 .. S_m`` (sequences of integer elements).
    k:
        Number of sets a query intersects (fixed at build time, ``>= 2``).
    threshold_exponent:
        The large/small cut-off exponent ``α``: a keyword is large at a node
        when its count reaches ``N_u^α``.  The paper's (and Cohen–Porat's)
        choice is ``α = 1 - 1/k``; other values realize the smooth
        space/query trade-off of Kopelowitz–Pettie–Porat [38] reviewed in
        §2 — smaller ``α`` means fewer keywords go small (cheaper
        materialized scans, i.e. query time ``~N^α``) at the price of more
        tree levels carrying large-keyword machinery (more space).
    """

    def __init__(
        self,
        sets: Sequence[Sequence[int]],
        k: int = 2,
        threshold_exponent: Optional[float] = None,
    ):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        if threshold_exponent is None:
            threshold_exponent = 1.0 - 1.0 / k
        if not 0.0 < threshold_exponent < 1.0:
            raise ValidationError(
                f"threshold_exponent must be in (0, 1), got {threshold_exponent}"
            )
        self.k = k
        self.threshold_exponent = threshold_exponent
        docs = sets_to_documents(sets)
        if not docs:
            raise ValidationError("the set family contains no elements")
        self.num_sets = len(sets)
        # Elements in id order; the id order plays the role of the kd-tree's
        # spatial order (any fixed order works — there is no geometry).
        self._elements: List[int] = sorted(docs)
        self._docs: List[FrozenSet[int]] = [docs[e] for e in self._elements]
        self.input_size: int = sum(len(d) for d in self._docs)
        all_keywords = set()
        for doc in self._docs:
            all_keywords.update(doc)
        self.root = self._build(0, len(self._elements), all_keywords)

    # -- construction ------------------------------------------------------------

    def _range_weight(self, start: int, stop: int) -> int:
        return sum(len(self._docs[i]) for i in range(start, stop))

    def _build(self, start: int, stop: int, candidates: Set[int]) -> _Node:
        """Build the subtree over elements ``[start, stop)``.

        ``candidates`` is the set of keywords large at every proper ancestor;
        only those can ever be queried at or below this node.
        """
        weight = self._range_weight(start, stop)
        node = _Node(start, stop, weight)
        if stop - start <= 1:
            return node  # leaf: scanned directly (the pivot set)

        threshold = weight ** self.threshold_exponent
        counts: Dict[int, int] = {}
        for i in range(start, stop):
            for word in self._docs[i]:
                if word in candidates:
                    counts[word] = counts.get(word, 0) + 1

        next_candidates: Set[int] = set()
        for word in candidates:
            count = counts.get(word, 0)
            if count >= threshold:
                node.large.add(word)
                next_candidates.add(word)
            elif count > 0:
                node.materialized[word] = [
                    i for i in range(start, stop) if word in self._docs[i]
                ]

        if not node.large:
            return node  # no query can descend further; children unnecessary

        split = self._weight_split(start, stop, weight)
        node.children = [
            self._build(start, split, next_candidates),
            self._build(split, stop, next_candidates),
        ]
        node.combos = [
            self._nonempty_combos(child, node.large) for child in node.children
        ]
        return node

    def _weight_split(self, start: int, stop: int, weight: int) -> int:
        """Split index balancing document mass between the halves."""
        acc = 0
        for i in range(start, stop - 1):
            acc += len(self._docs[i])
            if acc * 2 >= weight:
                return i + 1
        return stop - 1

    def _nonempty_combos(
        self, child: _Node, large: Set[int]
    ) -> Set[Tuple[int, ...]]:
        """Sorted k-tuples of large keywords with a common element in ``child``.

        This replaces the paper's k-dimensional bit array: instead of storing
        one bit per combination of large keywords, store the (hashable)
        combinations that are non-empty — an O(1)-expected-time probe with
        space bounded by the number of stored combinations.
        """
        combos: Set[Tuple[int, ...]] = set()
        for i in range(child.start, child.stop):
            present = sorted(large.intersection(self._docs[i]))
            if len(present) >= self.k:
                combos.update(combinations(present, self.k))
        return combos

    # -- queries -------------------------------------------------------------------

    def report(
        self, set_ids: Sequence[int], counter: Optional[CostCounter] = None
    ) -> List[int]:
        """Return the sorted intersection of the ``k`` requested sets."""
        counter = ensure_counter(counter)
        words = self._validated(set_ids)
        result: List[int] = []
        with span_for(counter, "report", "ksi"):
            self._visit(self.root, words, result, counter)
        result.sort()
        return result

    def is_empty(
        self,
        set_ids: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> bool:
        """Emptiness in ``O(N^(1-1/k))``: run a budgeted reporting query.

        Implements the paper's footnote 4: if the reporting query does not
        terminate within :data:`~repro.costmodel.KSI_PROBE_FACTOR`
        ``* N^(1-1/k)`` units, the intersection must be non-empty and the
        query is abandoned.
        """
        budget = int(KSI_PROBE_FACTOR * (1 + self.input_size**self.threshold_exponent))
        words = self._validated(set_ids)

        def first_match(probe: CostCounter) -> List[int]:
            result: List[int] = []
            self._visit(self.root, words, result, probe, stop_at_first=True)
            return result

        found, _ = ensure_counter(counter).attempt(budget, first_match)
        return found == []

    def _validated(self, set_ids: Sequence[int]) -> Tuple[int, ...]:
        words = tuple(set_ids)
        if len(words) != self.k or len(set(words)) != self.k:
            raise ValidationError(
                f"query must name exactly k={self.k} distinct sets, got {words}"
            )
        return words

    def _visit(
        self,
        node: _Node,
        words: Tuple[int, ...],
        result: List[int],
        counter: CostCounter,
        stop_at_first: bool = False,
        depth: int = 0,
    ) -> bool:
        """Recursive query; returns True when the caller should stop early."""
        tracer = counter.tracer
        if tracer is None:
            return self._visit_node(node, words, result, counter, stop_at_first, depth)
        tracer.push(f"depth={depth}", "ksi")
        try:
            return self._visit_node(node, words, result, counter, stop_at_first, depth)
        finally:
            tracer.pop()

    def _visit_node(
        self,
        node: _Node,
        words: Tuple[int, ...],
        result: List[int],
        counter: CostCounter,
        stop_at_first: bool,
        depth: int,
    ) -> bool:
        counter.charge("nodes_visited")
        if not node.is_leaf or node.materialized:
            # The small-keyword branch must run even at childless nodes
            # (fewer than k large keywords): the materialized list covers the
            # entire range at N_u^alpha cost, where a raw range scan would
            # pay Theta(N_u).
            counter.charge("structure_probes", len(words))
            small = next((w for w in words if w not in node.large), None)
            if small is not None:
                for i in node.materialized.get(small, ()):
                    counter.charge("objects_examined")
                    if self._docs[i].issuperset(words):
                        result.append(self._elements[i])
                        if stop_at_first:
                            return True
                return False

        if node.is_leaf:
            for i in range(node.start, node.stop):
                counter.charge("objects_examined")
                if self._docs[i].issuperset(words):
                    result.append(self._elements[i])
                    if stop_at_first:
                        return True
            return False

        key = tuple(sorted(words))
        for child, combos in zip(node.children, node.combos):
            counter.charge("structure_probes")
            if key in combos:
                if self._visit(
                    child, words, result, counter, stop_at_first, depth + 1
                ):
                    return True
        return False

    # -- introspection ----------------------------------------------------------------

    @property
    def space_units(self) -> int:
        """Stored entries: nodes + large sets + combos + materialized lists."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1 + len(node.large)
            total += sum(len(c) for c in node.combos)
            total += sum(len(lst) for lst in node.materialized.values())
            stack.extend(node.children)
        return total

    def height(self) -> int:
        """Tree height (root at level 0)."""

        def depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(depth(c) for c in node.children)

        return depth(self.root)

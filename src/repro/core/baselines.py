"""The two naive solutions of §1, for every problem in the paper.

* **Structured only** — answer the geometric predicate with a classic index
  (kd-tree range/region reporting), then discard candidates whose documents
  miss a keyword.  Cost grows with the *geometric* selectivity.
* **Keywords only** — intersect posting lists (inverted index), then discard
  candidates failing the geometric predicate.  Cost grows with the shortest
  *posting list*.

Either can be ``Θ(N)`` while reporting nothing, which is the drawback the
paper's indexes eliminate.  The benchmark harness runs these against every
index to reproduce the crossovers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..costmodel import CostCounter, ensure_counter
from ..dataset import (
    Dataset,
    KeywordObject,
    RectangleObject,
    validate_nonempty_keywords,
)
from ..geometry.halfspaces import HalfSpace
from ..geometry.rectangles import Rect
from ..geometry.regions import ConvexRegion
from ..kdtree import KdTree
from ..ksi.inverted import InvertedIndex


class StructuredOnlyIndex:
    """kd-tree region reporting + document post-filter.

    :meth:`query_rect` is the scalar path and the correctness oracle of the
    numpy :meth:`VectorizedBackend.query_structured
    <repro.fast.VectorizedBackend.query_structured>`, which reads
    :attr:`tree` and serves the same rectangle queries with identical id
    lists and cost snapshots (``tests/fast/test_backend_oracle.py``).
    """

    def __init__(self, dataset: Dataset, leaf_size: int = 8):
        self.dataset = dataset
        #: The kd-tree over the points, in ``dataset.objects`` order.  A
        #: kd-tree needs at least one point; an empty dataset simply has no
        #: tree and every query reports nothing (after the usual validation).
        self.tree = (
            KdTree([obj.point for obj in dataset.objects], leaf_size=leaf_size)
            if dataset.objects
            else None
        )

    def query_rect(
        self, rect: Rect, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> List[KeywordObject]:
        """ORP-KW the naive way: range query, then keyword filter."""
        counter = ensure_counter(counter)
        if self.tree is None:
            rect.require_dim(self.dataset.dim)
            validate_nonempty_keywords(keywords)
            return []
        hits = self.tree.range_query(rect, counter)
        return self._filter(hits, keywords, counter)

    def query_region(
        self, region, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> List[KeywordObject]:
        """LC/SP/SRP-KW the naive way: region query, then keyword filter."""
        counter = ensure_counter(counter)
        if self.tree is None:
            validate_nonempty_keywords(keywords)
            return []
        hits = self.tree.region_query(region, counter)
        return self._filter(hits, keywords, counter)

    def query_constraints(
        self,
        constraints: Sequence[HalfSpace],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """LC-KW via a conjunction of halfspaces."""
        return self.query_region(ConvexRegion(constraints), keywords, counter)

    def _filter(
        self, hits: Sequence[int], keywords: Sequence[int], counter: CostCounter
    ) -> List[KeywordObject]:
        words = tuple(validate_nonempty_keywords(keywords))
        result = []
        for idx in hits:
            counter.charge("structure_probes", len(words))
            obj = self.dataset.objects[idx]
            if obj.doc.issuperset(words):
                result.append(obj)
        return result


class KeywordsOnlyIndex:
    """Inverted-index intersection + geometric post-filter.

    The scalar path and the correctness oracle of the numpy
    :class:`~repro.fast.VectorizedBackend`, which serves the same rectangle
    queries with identical results and charged cost totals
    (``tests/fast/test_backend_oracle.py``).
    """

    def __init__(self, dataset: Dataset, inverted: Optional[InvertedIndex] = None):
        self.dataset = dataset
        self._inverted = inverted if inverted is not None else InvertedIndex(dataset)

    @property
    def space_units(self) -> int:
        """Posting-list entries of the inverted index (equals ``N``)."""
        return self._inverted.space_units

    def query_rect(
        self, rect: Rect, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> List[KeywordObject]:
        rect.require_dim(self.dataset.dim)
        return self.query_predicate(rect.contains_point, keywords, counter)

    def query_region(
        self, region, keywords: Sequence[int], counter: Optional[CostCounter] = None
    ) -> List[KeywordObject]:
        return self.query_predicate(region.contains_point, keywords, counter)

    def query_constraints(
        self,
        constraints: Sequence[HalfSpace],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        region = ConvexRegion(constraints)
        return self.query_region(region, keywords, counter)

    def query_predicate(
        self,
        predicate: Callable[[Tuple[float, ...]], bool],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        counter = ensure_counter(counter)
        matches = self._inverted.matching_objects(keywords, counter)
        result: List[KeywordObject] = []
        for obj in matches:
            counter.charge("comparisons")
            if predicate(obj.point):
                result.append(obj)
        return result

    def nearest(
        self,
        q: Sequence[float],
        t: int,
        keywords: Sequence[int],
        distance: Callable[[Sequence[float], Sequence[float]], float],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """t nearest matches under ``distance``: intersect then sort."""
        counter = ensure_counter(counter)
        matches = self._inverted.matching_objects(keywords, counter)
        counter.charge("comparisons", len(matches))
        matches.sort(key=lambda obj: (distance(q, obj.point), obj.oid))
        return matches[:t]


class ScanAllNn:
    """Full-scan t-nearest-neighbour with keyword filter.

    The "structured only" extreme for nearest-neighbour problems: examine
    every object in distance order.  Θ(|D|) per query, always.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset

    def nearest(
        self,
        q: Sequence[float],
        t: int,
        keywords: Sequence[int],
        distance: Callable[[Sequence[float], Sequence[float]], float],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        counter = ensure_counter(counter)
        words = tuple(validate_nonempty_keywords(keywords))
        scored = []
        for obj in self.dataset.objects:
            counter.charge("objects_examined")
            if obj.doc.issuperset(words):
                scored.append((distance(q, obj.point), obj.oid, obj))
        scored.sort()
        return [obj for _dist, _oid, obj in scored[:t]]


class NaiveRectangleIndex:
    """Both naive solutions for RR-KW (rectangle data).

    ``structured`` scans all rectangles testing intersection; ``keywords``
    intersects posting lists then tests intersection.  (A classic interval /
    R-tree would sharpen the structured constants but not its Θ(candidates)
    behaviour, which is what the benchmarks compare against.)
    """

    def __init__(self, rectangles: Sequence[RectangleObject]):
        self.rectangles = list(rectangles)
        self._postings = {}
        for i, rect_obj in enumerate(self.rectangles):
            for word in rect_obj.doc:
                self._postings.setdefault(word, []).append(i)

    def query_structured(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[RectangleObject]:
        counter = ensure_counter(counter)
        words = tuple(validate_nonempty_keywords(keywords))
        result = []
        for rect_obj in self.rectangles:
            counter.charge("objects_examined")
            if rect_obj.intersects(lo, hi) and rect_obj.doc.issuperset(words):
                result.append(rect_obj)
        return result

    def query_keywords(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[RectangleObject]:
        counter = ensure_counter(counter)
        words = sorted(
            validate_nonempty_keywords(keywords),
            key=lambda w: len(self._postings.get(w, ())),
        )
        shortest = self._postings.get(words[0], ())
        rest = words[1:]
        result = []
        for idx in shortest:
            counter.charge("objects_examined")
            rect_obj = self.rectangles[idx]
            if all(w in rect_obj.doc for w in rest) and rect_obj.intersects(lo, hi):
                result.append(rect_obj)
        return result


def linf_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """L∞ distance (footnote 2)."""
    return max(abs(x - y) for x, y in zip(a, b))


def l2_distance_squared(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance (exact on integer inputs)."""
    return sum((x - y) ** 2 for x, y in zip(a, b))

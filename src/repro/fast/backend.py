"""The vectorized execution backend and backend-name validation.

:class:`VectorizedBackend` is a drop-in executor for the engine's three
rectangle strategies — keywords-only (posting-list intersection + rectangle
post-filter), structured-only (kd-tree walk + keyword filter) and fused
(the Theorem-1 descent + rectangle and keyword tests): same signatures,
same validation, same result order, same charged cost totals as
:meth:`~repro.core.baselines.KeywordsOnlyIndex.query_rect`,
:meth:`~repro.core.baselines.StructuredOnlyIndex.query_rect` and
:meth:`~repro.core.orp_kw.OrpKwIndex.query` — but the hot loops run as
numpy passes over an :class:`~repro.fast.arrays.ArrayStore` and flat node
tables.  The cost-model path stays the correctness oracle:
``tests/fast/test_backend_oracle.py`` pins byte-identical result sets
across the differential sweep matrix.

Traced runs emit spans like every other component — one span per vectorized
pass, carrying batch-granularity charges — so the leaf-sum == CostCounter
invariant holds for fast-path queries too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.orp_kw import OrpKwIndex
from ..costmodel import CostCounter, ensure_counter
from ..dataset import (
    Dataset, KeywordObject, validate_nonempty_keywords, validate_query_keywords,
)
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..kdtree.tree import KdTree
from ..trace import span_for
from .arrays import ArrayStore, FusedTable, KdTable, charge_filter, fused_range, kd_range

#: An engine's executor backends: the instrumented object-at-a-time
#: reference path, the numpy fast path it is differentially checked
#: against, and ``auto``, which picks one of the two per query from its
#: keywords-only candidate estimate (``QueryEngine._resolve_backend``).
BACKENDS = ("cost_model", "vectorized", "auto")


def validate_backend(name: str) -> str:
    """Validate an engine's backend name; returns it for assignment chaining."""
    if name not in BACKENDS:
        raise ValidationError(
            f"unknown backend {name!r} (expected one of {BACKENDS})"
        )
    return name


class VectorizedBackend:
    """Numpy executor for the keywords-only, structured-only and fused
    strategies, all three in positions in ``dataset.objects``.

    ``dataset`` is the corpus; the executor reports the same
    :class:`~repro.dataset.KeywordObject` instances as the scalar path.
    ``tree`` is the kd-tree of the :class:`StructuredOnlyIndex
    <repro.core.baselines.StructuredOnlyIndex>` whose answers
    :meth:`query_structured` reproduces; its points, the corpus's
    coordinates in position order, are the ones every strategy tests.  It
    is required unless the corpus is empty (``None`` then).  ``fused``
    holds the :class:`~repro.core.orp_kw.OrpKwIndex` over ``dataset`` for
    each keyword count :meth:`query_fused` serves.  The backend reads the
    tree and the indexes and holds no copy: pickling keeps the dataset, the
    tree and the indexes and drops the derived arrays and tables, which
    unpickling rebuilds.
    """

    name = "vectorized"

    def __init__(
        self,
        dataset: Dataset,
        tree: Optional[KdTree],
        fused: Sequence[OrpKwIndex] = (),
    ):
        if tree is None and dataset.objects:
            raise ValidationError("the vectorized backend needs the corpus's kd-tree")
        self.dataset = dataset
        self.tree = tree
        self.store = ArrayStore(dataset)
        self.kd_table = KdTable(tree) if tree is not None else None
        self.fused: Dict[int, FusedTable] = {index.k: FusedTable(index) for index in fused}

    def __getstate__(self):
        return {
            "dataset": self.dataset,
            "tree": self.tree,
            "fused": [table.index for table in self.fused.values()],
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["dataset"], state["tree"], state["fused"])

    def query_rect(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Vectorized ``KeywordsOnlyIndex.query_rect``: the same ids in the
        same order, the same charges, and the same snapshot where a budget
        raises.

        :meth:`ArrayStore.intersect` narrows the shortest posting list
        (``intersect`` span); the survivors' rows of the tree's points are
        tested in one :meth:`Rect.contains_points` pass at one
        ``comparisons`` unit per candidate (``rect-filter`` span,
        :func:`~repro.fast.arrays.charge_filter`).  A rectangle of another
        dimension raises before any charge, as on the scalar path.
        """
        counter = ensure_counter(counter)
        rect.require_dim(self.dataset.dim)
        words = validate_nonempty_keywords(keywords)
        with span_for(counter, "intersect", "fast", keywords=len(words)):
            positions = self.store.intersect(words, counter)
        with span_for(counter, "rect-filter", "fast", candidates=int(positions.size)):
            if positions.size:
                charge_filter(counter, int(positions.size))
                positions = positions[rect.contains_points(self.tree.points[positions])]
        objects = self.dataset.objects
        return [objects[position] for position in positions.tolist()]

    def query_structured(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Vectorized ``StructuredOnlyIndex.query_rect``: the same ids in the
        same order, the same charges, and the same snapshot where a budget
        raises.

        :func:`~repro.fast.arrays.kd_range` walks the tree (``kd-walk``
        span), then :meth:`ArrayStore.keyword_filter` keeps the hits holding
        every keyword (``keyword-filter`` span).  The scalar path's edges
        hold: an empty corpus answers ``[]`` at zero cost once the keywords
        validate, a rectangle of another dimension raises before any charge,
        and empty keywords raise after the walk, as the scalar filter does.
        """
        counter = ensure_counter(counter)
        if self.tree is None:
            rect.require_dim(self.dataset.dim)
            validate_nonempty_keywords(keywords)
            return []
        with span_for(counter, "kd-walk", "fast"):
            positions = kd_range(self.kd_table, rect, counter)
        words = validate_nonempty_keywords(keywords)
        with span_for(counter, "keyword-filter", "fast", candidates=int(positions.size)):
            positions = self.store.keyword_filter(positions, words, counter)
        objects = self.dataset.objects
        return [objects[position] for position in positions.tolist()]

    def query_fused(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Vectorized ``OrpKwIndex.query`` for ``len(keywords)`` keywords:
        the same ids in the same order, the same charges, and the same
        snapshot where a budget raises.

        The rectangle goes to rank space as the scalar path converts it
        (:meth:`~repro.geometry.rank_space.RankSpaceMap.rect_to_rank`, with
        its ``comparisons``), and :func:`~repro.fast.arrays.fused_range`
        walks the index's :class:`~repro.fast.arrays.FusedTable` (both in
        the ``fused-walk`` span).  The scanned objects are then tested in
        one :meth:`Rect.contains_points` pass of their original coordinates
        against the original rectangle — a point lies in ``rect`` exactly
        when its ranks lie in the rank-space rectangle, which is the
        scalar path's test — and narrowed to those holding every keyword
        (:meth:`ArrayStore.holding`); neither test is charged, as in the
        scalar path.  A keyword count with no index, a rectangle of
        another dimension and repeated keywords raise before any charge.
        """
        counter = ensure_counter(counter)
        table = self.fused.get(len(keywords))
        if table is None:
            raise ValidationError(
                f"no fused index for k={len(keywords)} "
                f"(this backend serves k in {sorted(self.fused)})"
            )
        rect.require_dim(table.index.dim)
        words = validate_query_keywords(keywords, table.index.k)
        with span_for(counter, "fused-walk", "fast", keywords=len(words)):
            rank_rect = table.index.rank_map.rect_to_rank(rect, counter)
            positions = fused_range(table, rank_rect, words, counter)
        positions = positions[rect.contains_points(self.tree.points[positions])]
        positions = self.store.holding(positions, words)
        objects = self.dataset.objects
        return [objects[position] for position in positions.tolist()]

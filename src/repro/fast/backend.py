"""The vectorized execution backend and backend-name validation.

:class:`VectorizedBackend` is a drop-in executor for the keywords-only
strategy (posting-list intersection + geometric post-filter): same
signature, same validation, same result order, same charged cost totals as
:class:`~repro.core.baselines.KeywordsOnlyIndex` — but the hot loops run as
numpy passes over an :class:`~repro.fast.arrays.ArrayStore`.  The cost-model
path stays the correctness oracle: ``tests/fast/test_backend_oracle.py``
pins byte-identical result sets across the differential sweep matrix.

Traced runs emit spans like every other component — one span per vectorized
pass, carrying batch-granularity charges — so the leaf-sum == CostCounter
invariant holds for fast-path queries too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_nonempty_keywords
from ..errors import ValidationError
from ..geometry.halfspaces import HalfSpace
from ..geometry.rectangles import Rect
from ..trace import span_for
from .arrays import ArrayStore, charge_filter, region_mask

#: Executor backends: the instrumented object-at-a-time reference path and
#: the numpy fast path it is differentially checked against.
BACKENDS = ("cost_model", "vectorized")

#: Engine-level selection adds ``auto``: pick per query from the query's
#: keywords-only candidate estimate (see ``QueryEngine._resolve_backend``).
ENGINE_BACKENDS = BACKENDS + ("auto",)


def validate_backend(name: str, allow_auto: bool = False) -> str:
    """Validate a backend name; returns it for assignment chaining."""
    allowed = ENGINE_BACKENDS if allow_auto else BACKENDS
    if name not in allowed:
        raise ValidationError(
            f"unknown backend {name!r} (expected one of {allowed})"
        )
    return name


class VectorizedBackend:
    """Numpy executor for intersection + batched geometric post-filters.

    Parameters
    ----------
    dataset:
        The corpus; the executor reports the same
        :class:`~repro.dataset.KeywordObject` instances as the scalar path.
    store:
        An optional pre-built :class:`ArrayStore` to share between
        executors over the same dataset.
    """

    name = "vectorized"

    def __init__(self, dataset: Dataset, store: Optional[ArrayStore] = None):
        self.dataset = dataset
        self.store = store if store is not None else ArrayStore(dataset)

    def query_rect(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Vectorized ``KeywordsOnlyIndex.query_rect``.

        One ``comparisons`` unit per intersection candidate (exactly the
        scalar post-filter's charge), batched into a single charge inside
        the filter span (:func:`~repro.fast.arrays.charge_filter`).
        """
        counter = ensure_counter(counter)
        words = validate_nonempty_keywords(keywords)
        with span_for(counter, "intersect", "fast", keywords=len(words)):
            oids = self.store.intersect(words, counter)
        with span_for(counter, "rect-filter", "fast", candidates=int(oids.size)):
            if oids.size:
                charge_filter(counter, int(oids.size))
                oids = oids[self.store.rect_mask(oids, rect)]
        return [self.dataset[int(oid)] for oid in oids]

    def query_halfspaces(
        self,
        halfspaces: Sequence[HalfSpace],
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Vectorized intersection + halfspace-conjunction post-filter."""
        counter = ensure_counter(counter)
        words = validate_nonempty_keywords(keywords)
        with span_for(counter, "intersect", "fast", keywords=len(words)):
            oids = self.store.intersect(words, counter)
        with span_for(counter, "region-filter", "fast", candidates=int(oids.size)):
            if oids.size:
                charge_filter(counter, int(oids.size))
                pts = self.store.coords[self.store.rows(oids)]
                oids = oids[region_mask(pts, halfspaces)]
        return [self.dataset[int(oid)] for oid in oids]

"""Serving queries with a *varying* number of keywords.

Every index in the paper fixes ``k`` at construction ("Fix an integer
k >= 2") — the large/small threshold ``N_u^(1-1/k)`` depends on it.  A
deployed system, however, receives queries with one, two, or five keywords.
:class:`MultiKOrpIndex` is the practical wrapper: one Theorem-1 index per
``k`` in ``2..max_k`` plus a keywords-only index for ``k = 1`` (where
scanning the posting list *is* optimal: the list is exactly the answer
candidate set), and per-query routing.

Space: ``O(N * (max_k - 1))`` — a constant blow-up for constant ``max_k``,
which matches the paper's standing assumption that ``k = O(1)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..costmodel import CostCounter
from ..dataset import Dataset, KeywordObject
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..ksi.inverted import InvertedIndex
from .baselines import KeywordsOnlyIndex
from .orp_kw import OrpKwIndex


class MultiKOrpIndex:
    """ORP-KW for any keyword count in ``1..max_k``."""

    def __init__(self, dataset: Dataset, max_k: int = 4):
        if max_k < 1:
            raise ValidationError(f"max_k must be >= 1, got {max_k}")
        self.dataset = dataset
        self.max_k = max_k
        self._inverted = InvertedIndex(dataset)
        self._keywords = KeywordsOnlyIndex(dataset, inverted=self._inverted)
        self._by_k: Dict[int, OrpKwIndex] = {
            k: OrpKwIndex(dataset, k=k) for k in range(2, max_k + 1)
        }

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Route to the per-``k`` index matching ``len(keywords)``; one
        keyword goes to :attr:`keywords`, the posting-list scan."""
        words = list(dict.fromkeys(keywords))  # dedupe, keep order
        if not words:
            raise ValidationError("need at least one keyword")
        if len(words) > self.max_k:
            raise ValidationError(
                f"{len(words)} distinct keywords exceed max_k={self.max_k}"
            )
        if len(words) == 1:
            return self._keywords.query_rect(rect, words, counter)
        return self._by_k[len(words)].query(rect, words, counter)

    # -- component access (used by the serving layer) --------------------------

    @property
    def inverted(self) -> InvertedIndex:
        """The shared inverted index."""
        return self._inverted

    @property
    def keywords(self) -> KeywordsOnlyIndex:
        """The keywords-only index over :attr:`inverted` (the ``k = 1``
        route, and the serving layer's keywords-only strategy)."""
        return self._keywords

    def fused_for(self, k: int) -> OrpKwIndex:
        """The Theorem-1 index serving exactly ``k`` keywords (``k >= 2``)."""
        if k not in self._by_k:
            raise ValidationError(
                f"no fused index for k={k} (this index serves k in 2..{self.max_k})"
            )
        return self._by_k[k]

    @property
    def input_size(self) -> int:
        """``N``."""
        return self.dataset.total_doc_size

    @property
    def space_units(self) -> int:
        """Sum over the per-k structures (O(N) each)."""
        return self._inverted.space_units + sum(
            index.space_units for index in self._by_k.values()
        )

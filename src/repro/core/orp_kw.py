"""ORP-KW: orthogonal range reporting with keywords (Theorem 1).

Given a d-rectangle ``q`` and keywords ``w1..wk``, report every object of
``D`` inside ``q`` whose document contains all ``k`` keywords.  For
``d <= 2`` the index uses ``O(N)`` space and answers a query in
``O(N^(1-1/k) * (1 + OUT^(1/k)))`` time.

Construction = the four framework steps of §3:

1. a kd-tree over the *verbose* point set;
2. active/pivot distribution and large/small keyword classification;
3. the covered/crossing query walk;
4. rank-space reduction to remove the general-position assumption (§3.4).

The class also accepts ``d >= 3`` for the §3.5 remark's ablation: the same
construction works but the crossing sensitivity degrades to
``O(N^(1-1/max{k,d}))`` — Theorem 2's dimension-reduction index
(:class:`~repro.core.dim_reduction.DimReductionOrpKw`) is the right tool
there.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..costmodel import PROBE_FACTOR, CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject, validate_query_keywords
from ..errors import ValidationError
from ..geometry.rank_space import RankSpaceMap
from ..geometry.rectangles import Rect
from ..geometry.regions import RectRegion
from ..kdtree import KdTree
from .transform import KeywordTransform, QueryStats, verbose_points


class OrpKwIndex:
    """The Theorem-1 index for orthogonal range reporting with keywords."""

    def __init__(self, dataset: Dataset, k: int, threshold_scale: float = 1.0):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self.dataset = dataset
        self.k = k
        self.dim = dataset.dim

        # Step 4 first (rank space): gives every object distinct integer
        # coordinates on every axis, i.e. general position for free.
        self._rank_map = RankSpaceMap([obj.point for obj in dataset.objects])
        self._rank_objects: List[KeywordObject] = [
            KeywordObject(
                oid=i,
                point=tuple(float(c) for c in self._rank_map.to_rank_point(i)),
                doc=obj.doc,
            )
            for i, obj in enumerate(dataset.objects)
        ]
        self._originals: List[KeywordObject] = list(dataset.objects)

        # Steps 1-3: the kd-tree on the verbose set, split only as deep as the
        # generic transform descends, which keeps no reference to it.
        self._transform = KeywordTransform(
            self._rank_objects, self._verbose_tree(lazy=True), k,
            threshold_scale=threshold_scale, component="orp_kw",
        )

    def _verbose_tree(self, lazy: bool) -> KdTree:
        # A root cell strictly enclosing all rank coordinates, so no data
        # point lies on the root boundary (mirroring the paper's root cell
        # R^d), and every object lies in the open root cell.
        count = len(self._rank_objects)
        root_cell = Rect((-1.0,) * self.dim, (float(count),) * self.dim)
        return KdTree(
            verbose_points(self._rank_objects), leaf_size=1, root_cell=root_cell,
            lazy=lazy,
        )

    def kd_tree(self) -> KdTree:
        """The whole leaf-size-1 kd-tree over the rank-space verbose set.

        The index stores only the prefix of this tree its transform keeps and
        holds no tree after its build, so this builds the tree anew.  The
        Lemma-10 probe (:func:`~repro.audit.probes.kd_crossing_report`)
        measures it; the transform's nodes hold the same cells on the paths
        they share.
        """
        return self._verbose_tree(lazy=False)

    # -- queries ---------------------------------------------------------------------

    def query(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
        max_report: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> List[KeywordObject]:
        """Report ``q ∩ D(w1..wk)`` for the d-rectangle ``q = rect``.

        The rectangle is given in *original* coordinates; the O(log N)
        rank-space conversion of §3.4 happens internally.
        """
        rect.require_dim(self.dim)
        words = validate_query_keywords(keywords, self.k)
        rank_rect = self._rank_map.rect_to_rank(rect, counter)
        found = self._transform.query(
            RectRegion(rank_rect), words, counter, max_report, stats
        )
        return [self._originals[obj.oid] for obj in found]

    def is_empty(
        self,
        rect: Rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> bool:
        """Emptiness query in ``O(N^(1-1/k))`` (the paper's footnote 4).

        Run the reporting query with ``max_report=1`` under a hard budget of
        :data:`~repro.costmodel.PROBE_FACTOR` ``* N^(1-1/k)`` cost units
        (:meth:`~repro.costmodel.CostCounter.attempt`); if it reports an
        object, the answer is non-empty; if it exhausts the budget without
        finishing, the answer must also be non-empty (an empty-output query
        always terminates within ``O(N^(1-1/k))``).
        """
        budget = int(PROBE_FACTOR * (8 + self.input_size ** (1.0 - 1.0 / self.k)))
        found, _ = ensure_counter(counter).attempt(
            budget, lambda probe: self.query(rect, keywords, probe, max_report=1)
        )
        return found == []

    # -- introspection -----------------------------------------------------------------

    @property
    def rank_map(self) -> RankSpaceMap:
        """The §3.4 rank-space map of the indexed points."""
        return self._rank_map

    @property
    def transform(self) -> KeywordTransform:
        """The transformed kd-tree (steps 1-3) over the rank-space objects,
        whose ids are positions in ``dataset.objects``."""
        return self._transform

    @property
    def input_size(self) -> int:
        """``N`` (total document size)."""
        return self._transform.input_size

    @property
    def space_units(self) -> int:
        """Stored entries across the whole structure."""
        return self._transform.space_units

    def space_units_excluding(self, dead) -> int:
        """Stored entries minus the per-object entries of ``dead`` ids.

        ``dead`` holds object ids from this index's build dataset (for the
        dynamized wrapper these are bucket-local positions).  Shared
        keyword-level structure stays counted; see
        :meth:`KeywordTransform.space_units_excluding`.
        """
        return self._transform.space_units_excluding(dead)

    def max_pivot_size(self) -> int:
        """Largest internal pivot set (should be O(1) in rank space)."""
        return self._transform.max_pivot_size()

    def explain(self, rect: Rect, keywords: Sequence[int]) -> QueryStats:
        """Run the query collecting a structural breakdown.

        Returns a :class:`~repro.core.transform.QueryStats` whose
        :meth:`~repro.core.transform.QueryStats.describe` renders a
        human-readable account of where the query spent its time — pivot
        scans, materialized scans, and the two pruning mechanisms.
        """
        stats = QueryStats()
        self.query(rect, keywords, stats=stats)
        return stats

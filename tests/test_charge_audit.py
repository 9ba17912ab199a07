"""Regression tests for the cost-accounting fixes reprolint (R1-R3) surfaced.

Each test pins one fix from the repo-wide charge-site audit:

* uncharged post-filters and tombstone tests now charge the counter for the
  work they do (R1 true positives);
* budgeted emptiness probes fold into the caller's counter *per category*
  via ``CostCounter.merge`` instead of lumping the whole total into
  ``objects_examined``;
* ``InvertedIndex.posting_list`` returns a copy, so callers cannot poison
  the index (R3 true positive).

The differential tests compare a fixed entry point against a re-run of its
inner query alone: the delta is exactly the formerly-uncharged work.
"""

import random

import repro
from repro.core.baselines import KeywordsOnlyIndex
from repro.core.dynamize import DynamicOrpKw
from repro.core.lc_kw import LcKwIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.srp_kw import SrpKwIndex
from repro.costmodel import CostCounter
from repro.geometry.lifting import lift_sphere_squared
from repro.geometry.rectangles import Rect
from repro.geometry.regions import ConvexRegion
from repro.ksi.inverted import InvertedIndex

from helpers import random_dataset


class TestUnchargedTraversals:
    """R1 fixes: every candidate examined on a query path costs a unit."""

    def test_dynamic_query_charges_tombstone_filter(self):
        """DynamicOrpKw.query tests each bucket candidate against the
        tombstone set but used to charge nothing for it."""
        rng = random.Random(7)
        dyn = DynamicOrpKw(k=2, dim=2)
        oids = [
            dyn.insert((rng.uniform(0, 10), rng.uniform(0, 10)), [1, 2])
            for _ in range(48)
        ]
        for oid in oids[::5]:
            dyn.delete(oid)
        rect = Rect((0.0, 0.0), (10.0, 10.0))
        outer = CostCounter()
        result = dyn.query(rect, [1, 2], outer)
        assert result  # the scenario must actually exercise the filter

        # Re-run the same bucket queries alone: the delta is exactly one
        # structure probe per candidate (including tombstoned ones).
        inner = CostCounter()
        candidates = []
        for bucket in dyn.epoch.buckets:
            if bucket is not None:
                candidates.extend(bucket.query(rect, [1, 2], inner))
        assert len(candidates) > len(result)  # tombstones were filtered
        assert outer.total == inner.total + len(candidates)
        assert (
            outer["structure_probes"]
            == inner["structure_probes"] + len(candidates)
        )

    def test_keywords_only_predicate_filter_charged(self):
        """KeywordsOnlyIndex.query_predicate evaluates the geometric
        predicate on every keyword match; each evaluation is a comparison."""
        ds = random_dataset(random.Random(11), 60)
        index = KeywordsOnlyIndex(ds)
        words = [1, 2]
        matches = index._inverted.matching_objects(words, CostCounter())
        assert matches

        counter = CostCounter()
        rect = Rect((0.0, 0.0), (5.0, 5.0))
        index.query_rect(rect, words, counter)
        # matching_objects itself charges no comparisons, so the entire
        # comparison count is the (formerly free) post-filter.
        assert counter["comparisons"] == len(matches)

    def test_keywords_only_nearest_charged(self):
        ds = random_dataset(random.Random(11), 60)
        index = KeywordsOnlyIndex(ds)
        words = [1, 2]
        matches = index._inverted.matching_objects(words, CostCounter())
        assert matches

        counter = CostCounter()
        dist = lambda a, b: sum((x - y) ** 2 for x, y in zip(a, b))  # noqa: E731
        got = index.nearest((5.0, 5.0), 3, words, dist, counter)
        assert got
        assert counter["comparisons"] == len(matches)

    def test_srp_exact_distance_filter_charged(self):
        """SrpKwIndex.query_squared re-checks every lifted candidate with an
        exact distance computation; that work is now charged."""
        ds = random_dataset(random.Random(5), 80, integer_coords=True)
        index = SrpKwIndex(ds, k=2)
        center, r_sq, words = (5.0, 5.0), 16.0, [1, 2]

        outer = CostCounter()
        index.query_squared(center, r_sq, words, outer)

        inner = CostCounter()
        found = index._sp.query_region(
            ConvexRegion([lift_sphere_squared(center, r_sq)]), words, inner
        )
        assert found
        assert outer["comparisons"] == inner["comparisons"] + len(found)

    def test_lc_constraint_filter_charged(self):
        """LcKwIndex.query's single-constraint branch post-filters with
        HalfSpace.contains; one comparison per candidate."""
        ds = random_dataset(random.Random(9), 80)
        index = LcKwIndex(ds, k=2)
        half = repro.HalfSpace((1.0, 0.0), 6.0)  # x <= 6
        words = [1, 2]

        outer = CostCounter()
        index.query([half], words, outer)

        inner = CostCounter()
        found = index._sp.query_region(ConvexRegion([half]), words, inner)
        assert found
        assert outer["comparisons"] == inner["comparisons"] + len(found)


class TestProbeMergePreservesCategories:
    """Budgeted emptiness probes used to lump ``probe.total`` into
    ``objects_examined``, erasing the per-category breakdown.  They now
    ``merge`` the probe, so the caller sees the same total but real
    categories."""

    def test_orp_is_empty_merges_probe(self):
        ds = random_dataset(random.Random(3), 60)
        index = OrpKwIndex(ds, k=2)
        counter = CostCounter()
        index.is_empty(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2], counter)
        assert counter.total > 0
        # A lump would put *everything* under objects_examined; a merge
        # preserves the traversal categories the probe actually charged.
        assert set(counter.counts) != {"objects_examined"}
        assert counter.total == sum(counter.counts.values())

    def test_lc_is_empty_merges_probe(self):
        ds = random_dataset(random.Random(3), 60)
        index = LcKwIndex(ds, k=2)
        counter = CostCounter()
        index.is_empty([repro.HalfSpace((1.0, 0.0), 6.0)], [1, 2], counter)
        assert counter.total > 0
        assert set(counter.counts) != {"objects_examined"}


class TestPostingListEscape:
    """R3 fix: posting_list hands out a copy, not the internal list."""

    def test_posting_list_mutation_does_not_poison_index(self):
        ds = random_dataset(random.Random(2), 40)
        index = InvertedIndex(ds)
        plist = index.posting_list(1)
        assert plist
        before_freq = index.frequency(1)

        plist.append(-999)  # a caller sorting/extending its "view"
        plist.reverse()

        fresh = index.posting_list(1)
        assert -999 not in fresh
        assert fresh == sorted(fresh)
        assert index.frequency(1) == before_freq
        # queries still work against the intact postings
        counter = CostCounter()
        assert index.matching_objects([1], counter) is not None

"""Unit tests for repro.core.multi_k."""

import pytest

from repro.core.multi_k import MultiKOrpIndex
from repro.costmodel import CostCounter
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect

from helpers import random_dataset


class TestRouting:
    def test_all_ks_agree_with_brute_force(self, rng):
        ds = random_dataset(rng, 100)
        index = MultiKOrpIndex(ds, max_k=4)
        for k in (1, 2, 3, 4):
            for _ in range(8):
                a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
                c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
                rect = Rect((a, c), (b, d))
                words = rng.sample(range(1, 9), k)
                got = sorted(o.oid for o in index.query(rect, words))
                want = sorted(
                    o.oid
                    for o in ds
                    if rect.contains_point(o.point) and o.contains_keywords(words)
                )
                assert got == want, (k, got, want)

    def test_duplicate_keywords_deduped(self, rng):
        ds = random_dataset(rng, 60)
        index = MultiKOrpIndex(ds, max_k=3)
        rect = Rect.full(2)
        a = sorted(o.oid for o in index.query(rect, [1, 2]))
        b = sorted(o.oid for o in index.query(rect, [1, 2, 1]))
        assert a == b

    def test_too_many_keywords_rejected(self, rng):
        ds = random_dataset(rng, 30)
        index = MultiKOrpIndex(ds, max_k=2)
        with pytest.raises(ValidationError):
            index.query(Rect.full(2), [1, 2, 3])

    def test_no_keywords_rejected(self, rng):
        ds = random_dataset(rng, 30)
        index = MultiKOrpIndex(ds, max_k=2)
        with pytest.raises(ValidationError):
            index.query(Rect.full(2), [])

    def test_bad_max_k_rejected(self, rng):
        ds = random_dataset(rng, 30)
        with pytest.raises(ValidationError):
            MultiKOrpIndex(ds, max_k=0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rect_of_another_dimension_rejected(self, rng, dim):
        """Every keyword count refuses a rectangle of another dimension than
        the corpus, the one-keyword route included."""
        index = MultiKOrpIndex(random_dataset(rng, 60), max_k=3)
        rect = Rect((0.0,) * dim, (10.0,) * dim)
        for words in ([3], [1, 2], [1, 2, 3]):
            with pytest.raises(ValidationError):
                index.query(rect, words)

    def test_k1_uses_posting_list(self, rng):
        ds = random_dataset(rng, 100, vocabulary=10)
        index = MultiKOrpIndex(ds, max_k=2)
        counter = CostCounter()
        out = index.query(Rect.full(2), [3], counter=counter)
        # Cost ~ posting list length, not N.
        posting = len(ds.objects_with(3))
        assert len(out) == posting
        assert counter["objects_examined"] == posting

    def test_k1_charges_containment_comparisons(self, rng):
        """Regression: the k=1 route filtered candidates with
        rect.contains_point without charging `comparisons`, under-counting
        exactly the quantity the Table-1 benchmarks measure."""
        ds = random_dataset(rng, 100, vocabulary=10)
        index = MultiKOrpIndex(ds, max_k=2)
        counter = CostCounter()
        rect = Rect((2.0, 2.0), (7.0, 7.0))
        index.query(rect, [3], counter=counter)
        posting = len(ds.objects_with(3))
        # One containment test per posting-list candidate.
        assert counter["comparisons"] == posting
        assert counter["objects_examined"] == posting
        assert counter.total == 2 * posting

    def test_component_accessors(self, rng):
        ds = random_dataset(rng, 60)
        index = MultiKOrpIndex(ds, max_k=3)
        assert index.inverted.frequency(1) == len(ds.objects_with(1))
        assert len(index.keywords.query_rect(Rect.full(2), [1])) == len(ds.objects_with(1))
        assert index.fused_for(2).k == 2
        with pytest.raises(ValidationError):
            index.fused_for(5)
        with pytest.raises(ValidationError):
            index.fused_for(1)

    def test_space_scales_with_max_k(self, rng):
        ds = random_dataset(rng, 150)
        small = MultiKOrpIndex(ds, max_k=2)
        large = MultiKOrpIndex(ds, max_k=4)
        assert large.space_units > small.space_units
        assert large.space_units <= 8 * large.input_size * 4

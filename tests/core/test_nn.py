"""Unit tests for the nearest-neighbour indexes (Corollaries 4 and 7)."""

import pytest

from repro.core.baselines import l2_distance_squared, linf_distance
from repro.core.nn_l2 import L2NnIndex
from repro.core.nn_linf import LinfNnIndex
from repro.costmodel import CostCounter
from repro.errors import ValidationError

from helpers import duplicate_heavy_dataset, random_dataset


def brute_nearest(dataset, q, t, words, distance):
    matches = [o for o in dataset if o.contains_keywords(words)]
    matches.sort(key=lambda o: (distance(q, o.point), o.oid))
    return matches[:t]


class TestLinfNn:
    def test_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 90, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        for _ in range(12):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            t = rng.randint(1, 5)
            words = rng.sample(range(1, 6), 2)
            got = index.query(q, t, words)
            want = brute_nearest(ds, q, t, words, linf_distance)
            got_d = sorted(round(linf_distance(q, o.point), 9) for o in got)
            want_d = sorted(round(linf_distance(q, o.point), 9) for o in want)
            assert got_d == want_d

    def test_fewer_matches_than_t(self, rng):
        ds = random_dataset(rng, 40, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        words = rng.sample(range(1, 6), 2)
        total = len(ds.matching(words))
        got = index.query((5.0, 5.0), total + 10, words)
        assert len(got) == total

    def test_no_matches_at_all(self, rng):
        ds = random_dataset(rng, 30, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        assert index.query((5.0, 5.0), 3, [98, 99]) == []

    def test_t1_returns_nearest(self, rng):
        ds = random_dataset(rng, 60, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        for _ in range(10):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            words = rng.sample(range(1, 6), 2)
            got = index.query(q, 1, words)
            want = brute_nearest(ds, q, 1, words, linf_distance)
            if want:
                assert linf_distance(q, got[0].point) == pytest.approx(
                    linf_distance(q, want[0].point)
                )

    def test_degenerate_positions(self, rng):
        ds = duplicate_heavy_dataset(rng, 60)
        index = LinfNnIndex(ds, k=2)
        for _ in range(10):
            q = (rng.uniform(0, 4), rng.uniform(0, 4))
            t = rng.randint(1, 4)
            words = rng.sample(range(1, 7), 2)
            got = index.query(q, t, words)
            want = brute_nearest(ds, q, t, words, linf_distance)
            got_d = sorted(round(linf_distance(q, o.point), 9) for o in got)
            want_d = sorted(round(linf_distance(q, o.point), 9) for o in want)
            assert got_d == want_d

    def test_query_at_data_point(self, rng):
        ds = random_dataset(rng, 50, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        obj = ds.objects[0]
        words = sorted(obj.doc)[:2] if len(obj.doc) >= 2 else [1, 2]
        if len(words) == 2:
            got = index.query(obj.point, 1, words)
            if obj.contains_keywords(words):
                assert got and linf_distance(obj.point, got[0].point) == 0.0

    def test_validation(self, rng):
        ds = random_dataset(rng, 20, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        with pytest.raises(ValidationError):
            index.query((0.0,), 1, [1, 2])
        with pytest.raises(ValidationError):
            index.query((0.0, 0.0), 0, [1, 2])

    def test_counter_charged(self, rng):
        ds = random_dataset(rng, 60, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        counter = CostCounter()
        index.query((5.0, 5.0), 2, rng.sample(range(1, 6), 2), counter=counter)
        assert counter.total > 0

    def test_approx_l2_is_sqrt2_approximation(self, rng):
        """§1.1 remark: the L∞ answer approximates L2 within sqrt(d)."""
        import math

        ds = random_dataset(rng, 80, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        for _ in range(10):
            q = (rng.uniform(0, 10), rng.uniform(0, 10))
            words = rng.sample(range(1, 6), 2)
            got = index.query_approx_l2(q, 1, words)
            matches = [o for o in ds if o.contains_keywords(words)]
            if not matches:
                assert got == []
                continue

            def l2(o):
                return math.sqrt(sum((a - b) ** 2 for a, b in zip(q, o.point)))

            optimal = min(l2(o) for o in matches)
            assert l2(got[0]) <= math.sqrt(2) * optimal + 1e-9

    def test_approx_l2_reranks_by_l2(self, rng):
        import math

        ds = random_dataset(rng, 80, vocabulary=5)
        index = LinfNnIndex(ds, k=2)
        q = (5.0, 5.0)
        words = rng.sample(range(1, 6), 2)
        got = index.query_approx_l2(q, 4, words)
        dists = [
            math.sqrt(sum((a - b) ** 2 for a, b in zip(q, o.point))) for o in got
        ]
        assert dists == sorted(dists)


class TestL2Nn:
    def test_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 70, vocabulary=5, integer_coords=True, coord_range=40)
        index = L2NnIndex(ds, k=2)
        for _ in range(10):
            q = (float(rng.randint(0, 40)), float(rng.randint(0, 40)))
            t = rng.randint(1, 4)
            words = rng.sample(range(1, 6), 2)
            got = index.query(q, t, words)
            want = brute_nearest(ds, q, t, words, l2_distance_squared)
            got_d = sorted(l2_distance_squared(q, o.point) for o in got)
            want_d = sorted(l2_distance_squared(q, o.point) for o in want)
            assert got_d == want_d

    def test_exact_integer_distances(self, rng):
        ds = random_dataset(rng, 50, vocabulary=5, integer_coords=True, coord_range=20)
        index = L2NnIndex(ds, k=2)
        q = (10.0, 10.0)
        words = rng.sample(range(1, 6), 2)
        got = index.query(q, 2, words)
        for obj in got:
            assert l2_distance_squared(q, obj.point) == int(
                l2_distance_squared(q, obj.point)
            )

    def test_fewer_matches_than_t(self, rng):
        ds = random_dataset(rng, 40, vocabulary=5, integer_coords=True, coord_range=20)
        index = L2NnIndex(ds, k=2)
        words = rng.sample(range(1, 6), 2)
        total = len(ds.matching(words))
        got = index.query((10.0, 10.0), total + 5, words)
        assert len(got) == total

    def test_non_integer_input_rejected(self, rng):
        ds = random_dataset(rng, 20, vocabulary=5)  # float coords
        with pytest.raises(ValidationError):
            L2NnIndex(ds, k=2)

    def test_non_integer_query_rejected(self, rng):
        ds = random_dataset(rng, 20, vocabulary=5, integer_coords=True)
        index = L2NnIndex(ds, k=2)
        with pytest.raises(ValidationError):
            index.query((0.5, 0.0), 1, [1, 2])


class TestLinfBackends:
    def test_dimred_backend_for_3d(self, rng):
        from repro.core.dim_reduction import DimReductionOrpKw

        ds = random_dataset(rng, 60, dim=3, vocabulary=5)
        index = LinfNnIndex(ds, k=2)  # auto -> dimension reduction
        assert isinstance(index._index, DimReductionOrpKw)
        for _ in range(6):
            q = tuple(rng.uniform(0, 10) for _ in range(3))
            t = rng.randint(1, 3)
            words = rng.sample(range(1, 6), 2)
            got = index.query(q, t, words)
            want = brute_nearest(ds, q, t, words, linf_distance)
            got_d = sorted(round(linf_distance(q, o.point), 9) for o in got)
            want_d = sorted(round(linf_distance(q, o.point), 9) for o in want)
            assert got_d == want_d

    def test_explicit_kd_backend_in_3d(self, rng):
        from repro.core.orp_kw import OrpKwIndex

        ds = random_dataset(rng, 50, dim=3, vocabulary=5)
        index = LinfNnIndex(ds, k=2, backend="kd")
        assert isinstance(index._index, OrpKwIndex)
        q = (5.0, 5.0, 5.0)
        words = rng.sample(range(1, 6), 2)
        got = index.query(q, 2, words)
        want = brute_nearest(ds, q, 2, words, linf_distance)
        assert len(got) == len(want)

    def test_unknown_backend_rejected(self, rng):
        from repro.errors import ValidationError as VE

        ds = random_dataset(rng, 20, vocabulary=5)
        with pytest.raises(VE):
            LinfNnIndex(ds, k=2, backend="quantum")

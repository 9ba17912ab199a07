"""Unit tests for DynamicOrpKw (logarithmic-method dynamization)."""

import pytest

from repro.core.dynamize import DynamicOrpKw
from repro.costmodel import CostCounter
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect


def brute(reference, rect, words):
    return sorted(
        oid
        for oid, (point, doc) in reference.items()
        if rect.contains_point(point) and set(words) <= doc
    )


class TestInsertions:
    def test_insert_then_query(self):
        index = DynamicOrpKw(k=2, dim=2)
        oid = index.insert((1.0, 2.0), {1, 2})
        found = index.query(Rect((0.0, 0.0), (3.0, 3.0)), [1, 2])
        assert [o.oid for o in found] == [oid]

    def test_bucket_sizes_respect_doubling(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        for _ in range(100):
            index.insert((rng.random(), rng.random()), {rng.randint(1, 5), 7})
        for level, size in enumerate(index.bucket_sizes):
            assert size <= 2**level

    def test_interleaved_inserts_and_queries(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        reference = {}
        for step in range(150):
            point = (rng.uniform(0, 10), rng.uniform(0, 10))
            doc = frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
            oid = index.insert(point, doc)
            reference[oid] = (point, doc)
            if step % 25 == 0:
                a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
                c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
                rect = Rect((a, c), (b, d))
                words = rng.sample(range(1, 7), 2)
                got = sorted(o.oid for o in index.query(rect, words))
                assert got == brute(reference, rect, words)

    def test_insert_many_matches_singles(self, rng):
        batch = DynamicOrpKw(k=2, dim=2)
        single = DynamicOrpKw(k=2, dim=2)
        points = [(rng.random(), rng.random()) for _ in range(50)]
        docs = [frozenset(rng.sample(range(1, 6), 2)) for _ in range(50)]
        batch.insert_many(points, docs)
        for point, doc in zip(points, docs):
            single.insert(point, doc)
        rect = Rect((0.2, 0.2), (0.8, 0.8))
        a = sorted(o.oid for o in batch.query(rect, [1, 2]))
        b = sorted(o.oid for o in single.query(rect, [1, 2]))
        assert a == b

    def test_no_duplicates_across_buckets(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        for _ in range(80):
            index.insert((rng.random(), rng.random()), {1, 2})
        found = [o.oid for o in index.query(Rect.full(2), [1, 2])]
        assert len(found) == len(set(found)) == 80


class TestDeletions:
    def test_delete_removes_from_answers(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((rng.random(), rng.random()), {1, 2}) for _ in range(20)]
        index.delete(oids[5])
        found = {o.oid for o in index.query(Rect.full(2), [1, 2])}
        assert oids[5] not in found
        assert len(found) == 19

    def test_len_tracks_live_objects(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((rng.random(), rng.random()), {1, 2}) for _ in range(10)]
        assert len(index) == 10
        index.delete(oids[0])
        assert len(index) == 9

    def test_double_delete_rejected(self):
        index = DynamicOrpKw(k=2, dim=2)
        oid = index.insert((0.0, 0.0), {1, 2})
        # Inserting more keeps the structure from rebuilding immediately.
        index.insert((1.0, 1.0), {1, 2})
        index.insert((2.0, 2.0), {1, 2})
        index.delete(oid)
        with pytest.raises(ValidationError):
            index.delete(oid)

    def test_unknown_delete_rejected(self):
        index = DynamicOrpKw(k=2, dim=2)
        index.insert((0.0, 0.0), {1})
        with pytest.raises(ValidationError):
            index.delete(999)

    def test_rebuild_purges_tombstones(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((rng.random(), rng.random()), {1, 2}) for _ in range(32)]
        for oid in oids[:16]:
            index.delete(oid)  # triggers the half-dead rebuild
        assert len(index) == 16
        assert sum(index.bucket_sizes) == 16  # physically removed

    def test_churn_consistency(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        reference = {}
        for step in range(250):
            if reference and rng.random() < 0.35:
                oid = rng.choice(sorted(reference))
                index.delete(oid)
                del reference[oid]
            else:
                point = (rng.uniform(0, 10), rng.uniform(0, 10))
                doc = frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
                oid = index.insert(point, doc)
                reference[oid] = (point, doc)
            if step % 40 == 0:
                rect = Rect((2.0, 2.0), (8.0, 8.0))
                words = rng.sample(range(1, 7), 2)
                got = sorted(o.oid for o in index.query(rect, words))
                assert got == brute(reference, rect, words)


class TestLiveSpaceAccounting:
    def test_delete_then_measure_space_shrinks(self, rng):
        """Regression: space accounting must track the *live* set.  Before
        the fix, tombstoned objects kept their stored entries counted until
        the half-dead rebuild, so space drifted upward under delete-heavy
        churn even as the live set shrank."""
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((rng.random(), rng.random()), {1, 2}) for _ in range(32)]
        space_before = index.space_units
        # Stay under the 50%-dead rebuild threshold: tombstones only.
        for oid in oids[:5]:
            index.delete(oid)
        assert sum(index.bucket_sizes) == len(index) == 27
        space_after = index.space_units
        assert space_after < space_before
        # Each further delete shrinks the reported space monotonically.
        index.delete(oids[5])
        assert index.space_units < space_after

    def test_bucket_sizes_exclude_tombstones(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((rng.random(), rng.random()), {1, 2}) for _ in range(16)]
        assert sum(index.bucket_sizes) == 16
        for oid in oids[:3]:
            index.delete(oid)
        assert sum(index.bucket_sizes) == 13
        # Doubling caps still hold for live counts (live <= physical).
        for level, size in enumerate(index.bucket_sizes):
            assert size <= 2**level

    def test_rebuild_restores_physical_space(self, rng):
        """After the half-dead rebuild purges tombstones, live space and
        physical space coincide with a fresh index over the survivors."""
        index = DynamicOrpKw(k=2, dim=2)
        points = [(rng.random(), rng.random()) for _ in range(32)]
        oids = [index.insert(p, {1, 2}) for p in points]
        for oid in oids[:16]:
            index.delete(oid)  # triggers the rebuild
        fresh = DynamicOrpKw(k=2, dim=2)
        fresh.insert_many(points[16:], [{1, 2}] * 16)
        assert index.space_units == fresh.space_units


class TestDeleteFailureAtomicity:
    def test_double_delete_leaves_no_side_effects(self):
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((float(i), float(i)), {1, 2}) for i in range(8)]
        index.delete(oids[0])
        epoch_before = index.epoch
        with pytest.raises(ValidationError):
            index.delete(oids[0])
        # The failing path published nothing: the epoch object is untouched
        # (same identity, same id), tombstones and live count unchanged.
        assert index.epoch is epoch_before
        assert index.epoch.tombstones == frozenset({oids[0]})
        assert len(index) == 7

    def test_unknown_delete_leaves_no_side_effects(self):
        index = DynamicOrpKw(k=2, dim=2)
        index.insert((0.0, 0.0), {1, 2})
        epoch_before = index.epoch
        with pytest.raises(ValidationError):
            index.delete(999)
        assert index.epoch is epoch_before
        assert index.epoch.tombstones == frozenset()
        assert len(index) == 1

    def test_failed_delete_never_triggers_rebuild(self):
        """A rejected delete one short of the rebuild threshold must not
        tip the structure into a rebuild."""
        index = DynamicOrpKw(k=2, dim=2)
        oids = [index.insert((float(i), 0.5), {1, 2}) for i in range(4)]
        index.delete(oids[0])  # 1 of 4 dead; one more would rebuild
        epoch_before = index.epoch
        with pytest.raises(ValidationError):
            index.delete(oids[0])
        assert index.epoch is epoch_before


class TestEpochSnapshots:
    def test_pinned_epoch_unaffected_by_later_writes(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        first = index.insert_many(
            [(rng.random(), rng.random()) for _ in range(10)], [{1, 2}] * 10
        )
        pinned = index.epoch
        index.insert_many(
            [(rng.random(), rng.random()) for _ in range(20)], [{1, 2}] * 20
        )
        index.delete(first[0])
        got = sorted(o.oid for o in pinned.query(Rect.full(2), [1, 2]))
        assert got == sorted(first)  # the pin still answers pre-write state
        assert pinned.live_oids() == frozenset(first)

    def test_each_mutation_publishes_exactly_one_epoch(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        assert index.epoch.epoch_id == 0
        index.insert((0.1, 0.1), {1, 2})
        assert index.epoch.epoch_id == 1
        index.insert_many([(0.2, 0.2), (0.3, 0.3)], [{1, 2}, {1, 2}])
        assert index.epoch.epoch_id == 2  # the whole batch is one epoch
        index.delete(0)
        assert index.epoch.epoch_id == 3  # tombstone-or-rebuild, still one

    def test_empty_insert_many_publishes_nothing(self):
        index = DynamicOrpKw(k=2, dim=2)
        assert index.insert_many([], []) == []
        assert index.epoch.epoch_id == 0


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            DynamicOrpKw(k=1, dim=2)
        with pytest.raises(ValidationError):
            DynamicOrpKw(k=2, dim=0)

    def test_dim_mismatch(self):
        index = DynamicOrpKw(k=2, dim=2)
        with pytest.raises(ValidationError):
            index.insert((1.0,), {1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_insert_rejected_atomically(self, bad):
        """NaN/inf coordinates are rejected before any state mutation: no
        object id is burned and the structure is untouched (regression for
        the PR-1 insert path, which validated only after incrementing the
        id counter)."""
        index = DynamicOrpKw(k=2, dim=2)
        with pytest.raises(ValidationError):
            index.insert((bad, 1.0), {1})
        with pytest.raises(ValidationError):
            index.insert((1.0, bad), {1})
        assert len(index) == 0
        # The next good insert gets the first id — nothing was burned.
        assert index.insert((0.0, 0.0), {1, 2}) == 0

    def test_insert_many_atomic_on_bad_point(self):
        index = DynamicOrpKw(k=2, dim=2)
        with pytest.raises(ValidationError):
            index.insert_many(
                [(0.0, 0.0), (float("nan"), 1.0), (2.0, 2.0)],
                [{1}, {2}, {3}],
            )
        assert len(index) == 0
        assert index.bucket_sizes == ()

    def test_counter_charged(self, rng):
        index = DynamicOrpKw(k=2, dim=2)
        for _ in range(30):
            index.insert((rng.random(), rng.random()), {1, 2})
        counter = CostCounter()
        index.query(Rect.full(2), [1, 2], counter=counter)
        assert counter.total > 0

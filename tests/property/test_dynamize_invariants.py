"""Property-based invariants of the Bentley–Saxe dynamization layer.

These pin the structural guarantees of :class:`repro.core.dynamize.Dynamized`
that the churn differential harness (which only checks query answers) cannot
see: bucket capacities, carry-chain telescoping, the half-dead compaction
bound, epoch monotonicity, and snapshot isolation under a concurrent writer.
"""

import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamize import DynamicOrpKw
from repro.errors import ValidationError
from repro.geometry.rectangles import Rect

coordinate = st.floats(
    min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False
)

#: An operation tape: floats insert a point with that x-coordinate, ``None``
#: requests a delete of a seeded-random live object (no-op when empty).
op_tapes = st.lists(
    st.one_of(coordinate, st.none()), min_size=1, max_size=60
)


def _apply(index, ops, seed):
    """Replay an op tape; returns the set of live oids."""
    rng = random.Random(seed)
    live = set()
    for op in ops:
        if op is None:
            if live:
                victim = rng.choice(sorted(live))
                index.delete(victim)
                live.discard(victim)
        else:
            live.add(index.insert((op, -op), {1, 2}))
    return live


@given(ops=op_tapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_bucket_capacities_and_telescoping(ops, seed):
    """Level ``i`` physically holds at most ``2^i`` objects, the levels sum
    to the full physical population, and level-0..j-1 prefixes telescope:
    a non-empty level is preceded only by strictly smaller capacities, so
    the total below any level is < its capacity (the carry-chain identity
    ``1 + sum(2^i, i<j) = 2^j`` that makes single-insert merges exact)."""
    index = DynamicOrpKw(k=2, dim=2)
    _apply(index, ops, seed)
    buckets = index.epoch.buckets
    physical = [0 if b is None else len(b.objects) for b in buckets]
    for level, size in enumerate(physical):
        assert size <= (1 << level)
        assert sum(physical[:level]) < (1 << level)
    assert sum(physical) == len(index) + len(index.epoch.tombstones)


@given(num=st.integers(min_value=1, max_value=48))
@settings(max_examples=30, deadline=None)
def test_pure_inserts_follow_binary_representation(num):
    """With inserts only, occupancy is the binary representation of ``n``:
    level ``i`` holds exactly ``2^i`` objects iff bit ``i`` of ``n`` is set,
    and is empty otherwise — the exact telescoping of carry chains."""
    index = DynamicOrpKw(k=2, dim=2)
    for i in range(num):
        index.insert((float(i), 0.0), {1, 2})
    physical = [
        0 if b is None else len(b.objects) for b in index.epoch.buckets
    ]
    expected = [
        (1 << i) if num & (1 << i) else 0 for i in range(num.bit_length())
    ]
    assert physical == expected


@given(ops=op_tapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_tombstone_fraction_bounded_and_zero_after_compaction(ops, seed):
    """The half-dead rule keeps the dead fraction below ½ after every
    mutation, and an explicit compaction purges every tombstone."""
    index = DynamicOrpKw(k=2, dim=2)
    rng = random.Random(seed)
    live = set()
    for op in ops:
        if op is None:
            if not live:
                continue
            victim = rng.choice(sorted(live))
            index.delete(victim)
            live.discard(victim)
        else:
            live.add(index.insert((op, op), {1}))
        physical = len(index) + len(index.epoch.tombstones)
        if physical:
            assert len(index.epoch.tombstones) / physical < 0.5
    index.compact()
    assert index.epoch.tombstones == frozenset()
    assert len(index) == len(live)


@given(ops=op_tapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_epoch_ids_strictly_increase_per_mutation(ops, seed):
    """Every successful mutation publishes exactly one successor epoch;
    failed deletes publish nothing."""
    index = DynamicOrpKw(k=2, dim=2)
    rng = random.Random(seed)
    live = set()
    seen = [index.epoch.epoch_id]
    for op in ops:
        if op is None:
            if live:
                victim = rng.choice(sorted(live))
                index.delete(victim)
                live.discard(victim)
            else:
                before = index.epoch
                try:
                    index.delete(10**9)
                except ValidationError:
                    pass
                assert index.epoch is before  # failing path publishes nothing
                continue
        else:
            live.add(index.insert((op, 1.0), {1, 2}))
        seen.append(index.epoch.epoch_id)
    assert all(b == a + 1 for a, b in zip(seen, seen[1:]))


def test_pinned_snapshot_consistent_across_concurrent_compaction():
    """A pinned epoch keeps answering from its frozen state while a writer
    thread churns through inserts, deletes, and forced compactions."""
    index = DynamicOrpKw(k=2, dim=2)
    rng = random.Random(5)
    oids = [
        index.insert((rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)), {1, 2})
        for _ in range(32)
    ]
    rect = Rect((0.0, 0.0), (10.0, 10.0))
    pinned = index.epoch
    frozen = {obj.oid for obj in pinned.query(rect, [1, 2])}
    assert frozen == set(oids)

    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            got = {obj.oid for obj in pinned.query(rect, [1, 2])}
            if got != frozen:
                failures.append(got)
                return

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for round_no in range(20):
            index.insert((rng.uniform(0.0, 10.0), 0.5), {1, 2})
            index.delete(oids[round_no])
            if round_no % 5 == 0:
                index.compact()
    finally:
        stop.set()
        thread.join()
    assert not failures
    # The writer moved on: live view differs from the pinned one.
    assert {obj.oid for obj in index.query(rect, [1, 2])} != frozen
    assert pinned.epoch_id < index.epoch.epoch_id

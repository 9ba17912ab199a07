"""Churn differential harness: every dynamized index vs a rebuild oracle.

The Bentley–Saxe layer (:mod:`repro.core.dynamize`) must be *invisible* to
correctness: at any point of any insert/delete history, a dynamized index
answers exactly like a static index rebuilt from scratch over the current
live set.  This harness drives every dynamized Table-1 family through
seeded insert/delete/query mixes — zipf and planted keyword workloads,
several seeds — and checks the returned id-sets against the oracle at every
step, plus the maintenance-cost invariant (epoch snapshots are monotone).

The oracle rebuilds the static index fresh for each check, so any staleness
the ladder could introduce (a carry merge dropping objects, a tombstone
leaking through a rebuild, a bucket serving a dead object) shows up as a
set difference with the exact step index in the failure message.
"""

import random

import pytest

from repro.core.baselines import KeywordsOnlyIndex
from repro.core.dynamize import (
    DynamicKeywordsOnly,
    DynamicLcKw,
    DynamicMultiKOrp,
    DynamicOrpKw,
    DynamicSrpKw,
)
from repro.core.lc_kw import LcKwIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.core.orp_kw import OrpKwIndex
from repro.core.srp_kw import SrpKwIndex
from repro.costmodel import CostCounter
from repro.dataset import Dataset, KeywordObject
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.rectangles import Rect

SEEDS = (3, 11, 29)
WORKLOADS = ("zipf", "planted")

#: Kept small: LC-KW / SRP-KW bucket builds are partition-tree builds, and
#: the oracle rebuilds the full static index after every mutation.
NUM_OBJECTS = 36
DELETE_EVERY = 3  # one delete per three inserts, once warmed up
CHECK_EVERY = 4  # oracle comparison cadence (every step would be O(n^2) builds)


def _workload(kind, seed, num=NUM_OBJECTS):
    """Seeded points + docs; every doc contains the two probe keywords'
    superset structure the planted variant concentrates."""
    rng = random.Random(seed)
    points = [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(num)]
    if kind == "zipf":
        # Zipf-ish docs over a small vocabulary: keyword w with p ~ 1/w.
        vocabulary = list(range(1, 9))
        weights = [1.0 / w for w in vocabulary]
        docs = []
        for _ in range(num):
            doc = {1, 2} if rng.random() < 0.5 else set()
            while len(doc) < 2:
                doc.add(rng.choices(vocabulary, weights)[0])
            docs.append(doc)
    else:
        # Planted: a fixed fraction carries exactly the probe pair, the rest
        # draw from the tail vocabulary only.
        docs = [
            {1, 2} if i % 3 == 0 else {rng.randint(3, 8), rng.randint(3, 8), 9}
            for i in range(num)
        ]
    return points, docs


def _churn_steps(index, points, docs, seed):
    """Drive a seeded insert/delete mix; yield (step, live_objects) after
    every mutation.  ``live_objects`` maps the *index's* oids to objects."""
    rng = random.Random(seed + 1)
    live = {}
    step = 0
    for point, doc in zip(points, docs):
        oid = index.insert(point, doc)
        live[oid] = KeywordObject(oid=oid, point=tuple(point), doc=frozenset(doc))
        step += 1
        yield step, live
        if len(live) > 6 and step % DELETE_EVERY == 0:
            victim = rng.choice(sorted(live))
            index.delete(victim)
            del live[victim]
            step += 1
            yield step, live


def _rebuilt_dataset(live):
    """The oracle's input: live objects re-idded densely (Dataset needs
    unique ids; the mapping back to the dynamized index's oids is kept)."""
    ordered = [live[oid] for oid in sorted(live)]
    local = [
        KeywordObject(oid=i, point=obj.point, doc=obj.doc)
        for i, obj in enumerate(ordered)
    ]
    return Dataset(local), [obj.oid for obj in ordered]


RECT = Rect((2.0, 2.0), (8.0, 8.0))
KEYWORDS = [1, 2]
CONSTRAINTS = (HalfSpace((1.0, 0.0), 6.0), HalfSpace((0.0, -1.0), -2.0))
CENTER, RADIUS = (5.0, 5.0), 3.0


class Family:
    """One dynamized family + its rebuild-from-scratch oracle."""

    name = "family"

    def make_dynamic(self):
        raise NotImplementedError

    def query_dynamic(self, index, counter):
        raise NotImplementedError

    def query_oracle(self, dataset, counter):
        """Build the static index fresh over ``dataset`` and query it."""
        raise NotImplementedError


class OrpFamily(Family):
    name = "orp_kw"

    def make_dynamic(self):
        return DynamicOrpKw(k=2, dim=2)

    def query_dynamic(self, index, counter):
        return index.query(RECT, KEYWORDS, counter)

    def query_oracle(self, dataset, counter):
        return OrpKwIndex(dataset, 2).query(RECT, KEYWORDS, counter)


class KeywordsOnlyFamily(Family):
    name = "keywords_only"

    def make_dynamic(self):
        return DynamicKeywordsOnly(dim=2)

    def query_dynamic(self, index, counter):
        return index.query(RECT, KEYWORDS, counter)

    def query_oracle(self, dataset, counter):
        return KeywordsOnlyIndex(dataset).query_rect(RECT, KEYWORDS, counter)


class LcFamily(Family):
    name = "lc_kw"

    def make_dynamic(self):
        return DynamicLcKw(k=2, dim=2)

    def query_dynamic(self, index, counter):
        return index.query(CONSTRAINTS, KEYWORDS, counter)

    def query_oracle(self, dataset, counter):
        return LcKwIndex(dataset, 2).query(CONSTRAINTS, KEYWORDS, counter)


class SrpFamily(Family):
    name = "srp_kw"

    def make_dynamic(self):
        return DynamicSrpKw(k=2, dim=2)

    def query_dynamic(self, index, counter):
        return index.query(CENTER, RADIUS, KEYWORDS, counter)

    def query_oracle(self, dataset, counter):
        return SrpKwIndex(dataset, 2).query(CENTER, RADIUS, KEYWORDS, counter)


class MultiKFamily(Family):
    name = "multi_k_orp"

    def make_dynamic(self):
        return DynamicMultiKOrp(dim=2, max_k=3)

    def query_dynamic(self, index, counter):
        return index.query(RECT, KEYWORDS, counter)

    def query_oracle(self, dataset, counter):
        return MultiKOrpIndex(dataset, max_k=3).query(RECT, KEYWORDS, counter)


FAMILIES = (
    OrpFamily(),
    KeywordsOnlyFamily(),
    LcFamily(),
    SrpFamily(),
    MultiKFamily(),
)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
class TestChurnDifferential:
    def test_matches_rebuild_oracle_at_every_step(self, family, workload, seed):
        """Same result id-set as a from-scratch rebuild, throughout churn."""
        points, docs = _workload(workload, seed)
        index = family.make_dynamic()
        checked = 0
        for step, live in _churn_steps(index, points, docs, seed):
            assert len(index) == len(live)
            if step % CHECK_EVERY and step != 1:
                continue
            dataset, oid_map = _rebuilt_dataset(live)
            got = {obj.oid for obj in family.query_dynamic(index, CostCounter())}
            expected = {
                oid_map[obj.oid]
                for obj in family.query_oracle(dataset, CostCounter())
            }
            assert got == expected, (
                f"{family.name}/{workload}/seed={seed}: divergence at step "
                f"{step}: dynamic-only={sorted(got - expected)}, "
                f"oracle-only={sorted(expected - got)}"
            )
            checked += 1
        assert checked >= 5  # the mix actually exercised the comparison

    def test_maintenance_snapshots_monotone_across_epochs(
        self, family, workload, seed
    ):
        """Epoch maintenance snapshots never decrease (cumulative charges)."""
        points, docs = _workload(workload, seed)
        index = family.make_dynamic()
        previous = index.epoch.maintenance["total"]
        epochs = [index.epoch.epoch_id]
        for _step, _live in _churn_steps(index, points, docs, seed):
            snapshot = index.epoch.maintenance
            assert snapshot["total"] >= previous
            previous = snapshot["total"]
            epochs.append(index.epoch.epoch_id)
        assert epochs == sorted(epochs)
        # Churn performed real maintenance work, and the live maintenance
        # counter agrees with the last published snapshot.
        assert index.maintenance.total == index.epoch.maintenance["total"] > 0

"""Generic Bentley–Saxe dynamization for any static Table-1 index.

The paper's indexes are static.  This module adds inserts and deletes to
every Table-1 family through one audited mechanism, the classic
*logarithmic method* (Bentley–Saxe):

* a **geometric bucket ladder** — static sub-indexes of doubling capacities;
  an insertion merges the carry chain of full buckets into the next empty
  one (amortized ``O(log n)`` rebuild participations per object);
* **copy-on-write epoch publication** — all reader-visible state (bucket
  tuple, tombstone set, live count, maintenance-cost snapshot) lives in one
  immutable :class:`Epoch`, published with a single reference assignment, so
  readers pin a consistent view lock-free while a writer mutates;
* **lazy tombstone deletes** with the classic half-dead rebuild: the
  delete that leaves half the stored objects dead repacks the live set;
* **audited maintenance cost** — every carry-merge and compaction rebuild
  charges a dedicated :class:`~repro.costmodel.CostCounter`
  (:attr:`Dynamized.maintenance`), in the same RAM-model categories the
  query path uses, and each epoch carries a snapshot of the cumulative
  total, so amortized update cost is fitted and gated by the audit
  subsystem exactly like query cost (the ``CHURN`` scorecard row).  That
  counter and the published epochs are the ladder's whole record: it emits
  no events and meters no gauges.

A family plugs in through an :class:`IndexAdapter`: how to build a static
sub-index over a bucket's objects, how to run one family-specific query
against it, and how to count the live stored entries.  The concrete
dynamized classes at the bottom of this module cover the five Table-1
structures (:class:`DynamicOrpKw`, :class:`DynamicKeywordsOnly`,
:class:`DynamicLcKw`, :class:`DynamicSrpKw`, :class:`DynamicMultiKOrp`).

Concurrency contract: one writer at a time — callers serialize mutations,
for instance by writing from one thread — and any number of readers, each
pinning the current epoch lock-free by reading :attr:`Dynamized.epoch`.
A reader runs entirely against its frozen epoch, so it never observes a
half-applied batch, an object duplicated by a carry merge, or a
mid-rebuild empty bucket list.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..costmodel import CostCounter, ensure_counter
from ..dataset import Dataset, KeywordObject
from ..errors import ValidationError
from ..trace import span_for


class IndexAdapter:
    """How one static index family participates in the bucket ladder.

    Adapters are small, stateless-per-bucket plug-ins: :meth:`build`
    constructs the family's static index over a bucket's (re-idded)
    dataset, :meth:`query` runs one query — ``args`` is the family-specific
    argument tuple, *without* the counter — and :meth:`live_space_units`
    counts stored entries attributable to live objects.
    """

    #: Human-readable family tag (span/diagnostic labels).
    name = "index"

    def build(self, dataset: Dataset):
        raise NotImplementedError

    def query(self, index, args: Tuple, counter: CostCounter) -> List[KeywordObject]:
        raise NotImplementedError

    def live_space_units(self, index, dead_local: FrozenSet[int]) -> int:
        """Stored entries excluding ``dead_local`` (local ids) when the
        family can attribute per-object entries; physical space otherwise.

        Only ORP-KW exposes ``space_units_excluding`` today — families
        without it report physical space, which the half-dead compaction
        still caps at a constant factor of the live set's.
        """
        if not dead_local:
            return index.space_units
        excluding = getattr(index, "space_units_excluding", None)
        if excluding is not None:
            return excluding(dead_local)
        return index.space_units


class _Bucket:
    """One static sub-index over a fixed object snapshot.

    Buckets are immutable once built: a carry merge constructs *new* buckets
    and leaves the old ones intact, so epochs pinned by concurrent readers
    keep querying the structures they captured.
    """

    __slots__ = ("objects", "index", "adapter")

    def __init__(self, objects: List[KeywordObject], adapter: IndexAdapter):
        self.objects = objects
        # Re-id objects locally (Dataset requires unique ids; globals may
        # collide after re-insertion) and keep the mapping positional.
        local = [
            KeywordObject(oid=i, point=obj.point, doc=obj.doc)
            for i, obj in enumerate(objects)
        ]
        self.index = adapter.build(Dataset(local))
        self.adapter = adapter

    def query(self, *args) -> List[KeywordObject]:
        """Family-specific query; the last positional argument is the counter."""
        found = self.adapter.query(self.index, args[:-1], args[-1])
        return [self.objects[obj.oid] for obj in found]

    def live_space_units(self, tombstones: FrozenSet[int]) -> int:
        """Stored entries attributable to this bucket's live objects."""
        dead_local = frozenset(
            i for i, obj in enumerate(self.objects) if obj.oid in tombstones
        )
        return self.adapter.live_space_units(self.index, dead_local)


class Epoch:
    """One immutable published state of a :class:`Dynamized` index.

    An epoch is the unit of snapshot isolation: it freezes the bucket tuple
    and the tombstone set together, so every answer derived from it is
    internally consistent.  Epochs are cheap to pin (one attribute read) and
    safe to query from any thread — nothing reachable from an epoch is ever
    mutated after publication.  ``maintenance`` is the cumulative
    maintenance-cost snapshot at publication time (monotone across epochs).

    Subclasses add the family-specific ``query(...)`` signature; the shared
    bucket fan-out lives in :meth:`run`.
    """

    __slots__ = ("epoch_id", "buckets", "tombstones", "live_count", "maintenance")

    def __init__(
        self,
        epoch_id: int,
        buckets: Tuple[Optional[_Bucket], ...],
        tombstones: FrozenSet[int],
        live_count: int,
        maintenance: Optional[Dict[str, int]] = None,
    ):
        self.epoch_id = epoch_id
        self.buckets = buckets
        self.tombstones = tombstones
        self.live_count = live_count
        self.maintenance = dict(maintenance) if maintenance else {"total": 0}

    # -- queries ----------------------------------------------------------------

    def run(
        self, args: Tuple, counter: Optional[CostCounter] = None
    ) -> List[KeywordObject]:
        """Report matches across this epoch's buckets (tombstones filtered)."""
        counter = ensure_counter(counter)
        result: List[KeywordObject] = []
        with span_for(counter, "epoch-scan", "dynamic", epoch=self.epoch_id):
            for bucket in self.buckets:
                if bucket is None:
                    continue
                for obj in bucket.query(*args, counter):
                    counter.charge("structure_probes")
                    if obj.oid not in self.tombstones:
                        result.append(obj)
        return result

    def live_oids(self) -> FrozenSet[int]:
        """The ids of every live object in this epoch (diagnostic)."""
        return frozenset(
            obj.oid
            for bucket in self.buckets
            if bucket is not None
            for obj in bucket.objects
            if obj.oid not in self.tombstones
        )

    # -- accounting -------------------------------------------------------------

    def __len__(self) -> int:
        return self.live_count

    @property
    def bucket_sizes(self) -> Tuple[int, ...]:
        """Per-level *live* object counts, smallest level first.

        Tombstoned objects are excluded: a physically full bucket whose
        objects are all dead reports 0, so delete-heavy churn cannot inflate
        the occupancy picture between rebuilds.
        """
        sizes = []
        for bucket in self.buckets:
            if bucket is None:
                sizes.append(0)
            elif not self.tombstones:
                sizes.append(len(bucket.objects))
            else:
                sizes.append(
                    sum(
                        1
                        for obj in bucket.objects
                        if obj.oid not in self.tombstones
                    )
                )
        return tuple(sizes)

    @property
    def space_units(self) -> int:
        """Stored entries attributable to *live* objects.

        Between rebuilds the sub-indexes still physically hold tombstoned
        objects, but counting their entries would make space accounting (and
        the near-linear-space audit probes fed by it) drift upward under
        delete-heavy churn even though the live set shrinks.  Families that
        can attribute per-object entries exclude dead ones; the half-dead
        compaction rule caps the remaining dead weight at a constant
        factor either way.
        """
        return sum(
            bucket.live_space_units(self.tombstones)
            for bucket in self.buckets
            if bucket is not None
        )

    @property
    def input_size(self) -> int:
        """The paper's ``N`` over the live set: ``Σ |e.Doc|``."""
        return sum(
            len(obj.doc)
            for bucket in self.buckets
            if bucket is not None
            for obj in bucket.objects
            if obj.oid not in self.tombstones
        )


class RectEpoch(Epoch):
    """Epoch whose family answers orthogonal-range (rectangle) queries."""

    __slots__ = ()

    def query(
        self,
        rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        return self.run((rect, keywords), counter)


class HalfspaceEpoch(Epoch):
    """Epoch whose family answers linear-constraint (halfspace) queries."""

    __slots__ = ()

    def query(
        self,
        constraints,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        return self.run((constraints, keywords), counter)


class BallEpoch(Epoch):
    """Epoch whose family answers spherical-range (center, radius) queries."""

    __slots__ = ()

    def query(
        self,
        center,
        radius: float,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        return self.run((center, radius, keywords), counter)


class Dynamized:
    """Insert/delete capability for any adapted static index.

    Parameters
    ----------
    adapter:
        The family plug-in (build/query/space for one static index class).
    dim:
        Point dimensionality (validated on every insert).

    The index carries no telemetry of its own: its audited record is
    :attr:`maintenance`, snapshotted into every published :class:`Epoch`,
    and the epoch itself (live count, tombstones, bucket sizes).

    Query time: ``O(log n)`` static queries.  Insertion: amortized
    ``O(log n)`` rebuild participations per object, every one charged to
    :attr:`maintenance`.  Concurrency: single writer, many lock-free
    readers pinning epochs via :attr:`epoch`.
    """

    #: The family-specific :class:`Epoch` subclass this index publishes.
    epoch_class = RectEpoch

    def __init__(self, adapter: IndexAdapter, dim: int):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self.adapter = adapter
        self.dim = dim
        #: Cumulative maintenance cost: every carry-merge and compaction
        #: rebuild charges here, in the standard RAM-model categories
        #: (``objects_examined`` per rebuild participation, ``nodes_visited``
        #: per sub-index build), so amortized update cost is audited with the
        #: same machinery as query cost.
        self.maintenance = CostCounter()
        #: Writer-side master copy: every object inserted and not yet purged
        #: by a compaction (tombstoned objects stay here until then).
        #: Readers never touch it — all read state comes from the epoch.
        self._objects: Dict[int, KeywordObject] = {}
        self._next_oid = 0
        self._epoch = self.epoch_class(0, (), frozenset(), 0)

    # -- snapshots ---------------------------------------------------------------

    @property
    def epoch(self) -> Epoch:
        """The currently published epoch (advances on every mutation).

        The epoch is immutable: queries against it keep answering from the
        pinned state no matter how many inserts, deletes, or compactions
        are published afterwards.
        """
        return self._epoch

    # -- updates ---------------------------------------------------------------

    def _coerce_point(self, point: Sequence[float]) -> Tuple[float, ...]:
        """Validate an incoming point *before* any index state changes.

        Rejecting here (rather than relying on :class:`KeywordObject`) keeps
        updates atomic: a bad point cannot burn an object id or leave a bulk
        insert half-applied.  NaN in particular would make every later
        containment test silently inconsistent, so it must never reach a
        bucket.
        """
        coords = tuple(float(c) for c in point)
        if len(coords) != self.dim:
            raise ValidationError(
                f"point is {len(coords)}-dimensional, index is {self.dim}-dimensional"
            )
        for coord in coords:
            if not math.isfinite(coord):
                raise ValidationError(
                    f"point has a non-finite coordinate ({coord})"
                )
        return coords

    def insert(self, point: Sequence[float], doc) -> int:
        """Insert an object; returns its assigned id.

        The new epoch (carry chain fully merged) is published atomically
        after the merge completes; concurrent readers see the index either
        entirely without or entirely with the new object.
        """
        coords = self._coerce_point(point)
        oid = self._next_oid
        obj = KeywordObject(oid=oid, point=coords, doc=frozenset(doc))
        epoch = self._epoch
        buckets = self._merged(epoch.buckets, [obj])
        self._next_oid += 1
        self._objects[oid] = obj
        self._publish(buckets, epoch.tombstones)
        return oid

    def insert_many(self, points, docs) -> List[int]:
        """Bulk insert; cheaper than repeated :meth:`insert` for big batches.

        Atomic twice over: every point is validated before the first object
        is created (a malformed point anywhere in the batch leaves the index
        unchanged), and the whole batch lands in one published epoch (a
        concurrent reader sees none of the batch or all of it, never a
        prefix).
        """
        coerced = [self._coerce_point(point) for point in points]
        oids = []
        batch = []
        next_oid = self._next_oid
        for coords, doc in zip(coerced, docs):
            obj = KeywordObject(oid=next_oid, point=coords, doc=frozenset(doc))
            batch.append(obj)
            oids.append(next_oid)
            next_oid += 1
        if batch:
            epoch = self._epoch
            buckets = self._merged(epoch.buckets, batch)
            self._next_oid = next_oid
            for obj in batch:
                self._objects[obj.oid] = obj
            self._publish(buckets, epoch.tombstones)
        return oids

    def delete(self, oid: int) -> None:
        """Tombstone an object; physical removal happens at compaction.

        Deleting an unknown id or an already-tombstoned id raises
        :class:`~repro.errors.ValidationError` uniformly, with **no** side
        effects on the failing path: no tombstone is recorded, no epoch is
        published, and no compaction is triggered.

        The delete that leaves half the stored objects dead compacts instead
        (the classic half-dead rebuild), so the dead fraction stays below
        one half after every mutation.
        """
        epoch = self._epoch
        if oid not in self._objects:
            raise ValidationError(f"unknown object id {oid}")
        if oid in epoch.tombstones:
            raise ValidationError(f"object {oid} already deleted")
        tombstones = epoch.tombstones | {oid}
        if 2 * len(tombstones) >= len(self._objects):
            self._rebuild_all(tombstones)
        else:
            self._publish(epoch.buckets, tombstones)

    def compact(self) -> None:
        """Purge tombstones and re-pack the live set now (one new epoch).

        The half-dead rule in :meth:`delete` normally decides this;
        ``compact()`` is the operator override (e.g. before a snapshot-heavy
        read phase).
        """
        self._rebuild_all(self._epoch.tombstones)

    def _rebuild_all(self, tombstones: FrozenSet[int]) -> None:
        """Purge ``tombstones`` and re-pack the live objects into fresh buckets.

        The rebuild happens entirely off to the side — the previous epoch
        keeps serving readers throughout — and the result is published in a
        single step, so there is no window in which a reader could observe
        an empty (or partially packed) bucket list.
        """
        live = [
            obj for oid, obj in self._objects.items() if oid not in tombstones
        ]
        self._objects = {obj.oid: obj for obj in live}
        buckets: Tuple[Optional[_Bucket], ...] = ()
        if live:
            buckets = self._merged((), live)
        self._publish(buckets, frozenset())

    def _publish(
        self,
        buckets: Sequence[Optional[_Bucket]],
        tombstones: FrozenSet[int],
    ) -> None:
        """Atomically install the successor epoch (one reference assignment)."""
        self._epoch = self.epoch_class(
            self._epoch.epoch_id + 1,
            tuple(buckets),
            frozenset(tombstones),
            len(self._objects) - len(tombstones),
            self.maintenance.snapshot(),
        )

    # -- maintenance ------------------------------------------------------------

    def _merged(
        self,
        buckets: Sequence[Optional[_Bucket]],
        carry: List[KeywordObject],
    ) -> Tuple[Optional[_Bucket], ...]:
        """The logarithmic-method carry merge, charged to :attr:`maintenance`.

        Returns a new bucket tuple with ``carry`` folded in; the input
        buckets are never mutated (merged-away levels are dropped from the
        *copy*), so epochs holding the old tuple stay valid while the new
        sub-index builds.
        """
        counter = self.maintenance
        with span_for(counter, "carry-merge", "dynamize", carry=len(carry)):
            new: List[Optional[_Bucket]] = list(buckets)
            level = 0
            while True:
                if level == len(new):
                    new.append(None)
                bucket = new[level]
                if bucket is None and len(carry) <= (1 << level):
                    new[level] = self._build_bucket(carry)
                    return tuple(new)
                if bucket is not None:
                    carry = carry + bucket.objects
                    new[level] = None
                level += 1

    def _build_bucket(self, objects: List[KeywordObject]) -> _Bucket:
        """Build one static sub-index, charging each rebuild participation.

        ``objects_examined`` counts one unit per object packed into the new
        sub-index — summed over a workload this is exactly the Bentley–Saxe
        "rebuild participations" quantity whose amortized ``O(log n)`` per
        insertion the CHURN audit row fits and gates.
        """
        counter = self.maintenance
        counter.charge("nodes_visited")
        counter.charge("objects_examined", len(objects))
        return _Bucket(objects, self.adapter)

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._epoch.live_count

    @property
    def bucket_sizes(self) -> Tuple[int, ...]:
        """Live bucket sizes, smallest level first (diagnostic)."""
        return self._epoch.bucket_sizes

    @property
    def space_units(self) -> int:
        """Stored entries attributable to live objects (see :class:`Epoch`)."""
        return self._epoch.space_units

    @property
    def input_size(self) -> int:
        """The paper's ``N`` over the live set (space probes divide by it)."""
        return self._epoch.input_size


# -- family adapters -----------------------------------------------------------


class OrpKwAdapter(IndexAdapter):
    """Theorem-1 ORP-KW sub-indexes (rect + exactly-k keywords)."""

    name = "orp_kw"

    def __init__(self, k: int):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self.k = k

    def build(self, dataset: Dataset):
        from .orp_kw import OrpKwIndex

        return OrpKwIndex(dataset, self.k)

    def query(self, index, args, counter):
        rect, keywords = args
        return index.query(rect, keywords, counter)


class KeywordsOnlyAdapter(IndexAdapter):
    """Keywords-only baseline sub-indexes (posting-list scan + rect filter)."""

    name = "keywords_only"

    def build(self, dataset: Dataset):
        from .baselines import KeywordsOnlyIndex

        return KeywordsOnlyIndex(dataset)

    def query(self, index, args, counter):
        rect, keywords = args
        return index.query_rect(rect, keywords, counter)


class LcKwAdapter(IndexAdapter):
    """Theorem-5 LC-KW sub-indexes (halfspace constraints + k keywords)."""

    name = "lc_kw"

    def __init__(self, k: int):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self.k = k

    def build(self, dataset: Dataset):
        from .lc_kw import LcKwIndex

        return LcKwIndex(dataset, self.k)

    def query(self, index, args, counter):
        constraints, keywords = args
        return index.query(constraints, keywords, counter)


class SrpKwAdapter(IndexAdapter):
    """Corollary-6 SRP-KW sub-indexes (L2 ball + k keywords)."""

    name = "srp_kw"

    def __init__(self, k: int):
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        self.k = k

    def build(self, dataset: Dataset):
        from .srp_kw import SrpKwIndex

        return SrpKwIndex(dataset, self.k)

    def query(self, index, args, counter):
        center, radius, keywords = args
        return index.query(center, radius, keywords, counter)


class MultiKOrpAdapter(IndexAdapter):
    """Multi-k ORP-KW sub-indexes (rect + 1..max_k keywords)."""

    name = "multi_k_orp"

    def __init__(self, max_k: int):
        if max_k < 1:
            raise ValidationError(f"max_k must be >= 1, got {max_k}")
        self.max_k = max_k

    def build(self, dataset: Dataset):
        from .multi_k import MultiKOrpIndex

        return MultiKOrpIndex(dataset, max_k=self.max_k)

    def query(self, index, args, counter):
        rect, keywords = args
        return index.query(rect, keywords, counter)


# -- concrete dynamized Table-1 indexes ----------------------------------------


class DynamicOrpKw(Dynamized):
    """Insert/delete-capable ORP-KW (rect, exactly k words).

    Query time: ``O(log n)`` static queries, i.e.
    ``O(N^(1-1/k)(1+OUT^(1/k)) * log n)``.  Insertion: amortized
    ``O(log n)`` rebuild participations per object, each charged to
    :attr:`~Dynamized.maintenance`.
    """

    epoch_class = RectEpoch

    def __init__(self, k: int, dim: int):
        super().__init__(OrpKwAdapter(k), dim)
        self.k = k

    def query(
        self,
        rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches across all live buckets (tombstones filtered)."""
        return self._epoch.query(rect, keywords, counter)


class DynamicKeywordsOnly(Dynamized):
    """Insert/delete-capable keywords-only baseline (rect queries, any k)."""

    epoch_class = RectEpoch

    def __init__(self, dim: int):
        super().__init__(KeywordsOnlyAdapter(), dim)

    def query(
        self,
        rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches across all live buckets (tombstones filtered)."""
        return self._epoch.query(rect, keywords, counter)


class DynamicLcKw(Dynamized):
    """Insert/delete-capable LC-KW (halfspace constraints, exactly k words)."""

    epoch_class = HalfspaceEpoch

    def __init__(self, k: int, dim: int):
        super().__init__(LcKwAdapter(k), dim)
        self.k = k

    def query(
        self,
        constraints,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches across all live buckets (tombstones filtered)."""
        return self._epoch.query(constraints, keywords, counter)


class DynamicSrpKw(Dynamized):
    """Insert/delete-capable SRP-KW (L2 ball, exactly k words)."""

    epoch_class = BallEpoch

    def __init__(self, k: int, dim: int):
        super().__init__(SrpKwAdapter(k), dim)
        self.k = k

    def query(
        self,
        center,
        radius: float,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches across all live buckets (tombstones filtered)."""
        return self._epoch.query(center, radius, keywords, counter)


class DynamicMultiKOrp(Dynamized):
    """Insert/delete-capable multi-k ORP-KW (rect, 1..max_k words)."""

    epoch_class = RectEpoch

    def __init__(self, dim: int, max_k: int = 4):
        super().__init__(MultiKOrpAdapter(max_k), dim)
        self.max_k = max_k

    def query(
        self,
        rect,
        keywords: Sequence[int],
        counter: Optional[CostCounter] = None,
    ) -> List[KeywordObject]:
        """Report matches across all live buckets (tombstones filtered)."""
        return self._epoch.query(rect, keywords, counter)

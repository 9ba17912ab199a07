"""Serving layer: a hardened query service above the index structures.

Robust CAS-style systems put a single query-service layer above their index
structures rather than letting every caller wire planner, indexes, and cost
accounting together by hand.  This package is that layer for :mod:`repro`:

* :class:`QueryEngine` — fronts :class:`~repro.core.multi_k.MultiKOrpIndex`
  through one :class:`~repro.core.planner.HybridPlanner` that plans every
  query, whatever its keyword count; executes single and batched queries
  under an explicit cost budget, and degrades gracefully (budget
  blow-ups become recorded fallbacks, never exceptions); it shares its
  validation, cache-hit, finish and shed records, its record sink (the
  one input of every counter, event, retained trace and SLO window) and
  its read side with the sharded engine through ``ServingBase``;
* :class:`LRUCache` — bounded result cache with hit/miss accounting;
* :class:`QueryRecord` — per-query observability record (strategy chosen,
  fallbacks taken, cost snapshot, cache status, per-shard slices),
  exportable as JSON;
* :class:`ShardedQueryEngine` / :func:`partition_dataset` — spatial
  sharding: median kd-split partitioning, one engine per shard, and one
  fan-out plan (prune shards by bounding box, split the budget exactly
  with :func:`split_budget_exact`, merge cost traces);
* :class:`AsyncQueryEngine` / :class:`AdmissionController` — the one
  asyncio front end: bounded in-flight cost with budget-machinery shedding;
  runs either engine's own plan, opening, finishing and recording on the
  event loop and executing on a worker pool, and meters into the engine's
  registry; writes are the engine's own ``insert``/``delete`` on the loop
  thread;
* :class:`Snapshot` / :class:`SnapshotManager` — snapshot-isolated reads
  (writers publish immutable epochs, readers pin them lock-free; a pinned
  shard map answers through the fan-out's per-shard step).
"""

from .async_engine import AdmissionController, AsyncQueryEngine
from .cache import LRUCache
from .engine import QueryEngine, QueryRecord
from .sharding import ShardedQueryEngine, partition_dataset, split_budget_exact
from .snapshots import Snapshot, SnapshotManager

__all__ = [
    "AdmissionController",
    "AsyncQueryEngine",
    "LRUCache",
    "QueryEngine",
    "QueryRecord",
    "ShardedQueryEngine",
    "Snapshot",
    "SnapshotManager",
    "partition_dataset",
    "split_budget_exact",
]

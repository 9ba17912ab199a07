"""Experiment S3 — async serving: concurrent fan-out and mixed churn.

Two tables (core logic in :mod:`repro.bench.serving`, shared with the CLI's
``bench-serve`` subcommand):

* **fan-out wall-clock** — a selective-rectangle workload served by the
  same fan-out plan twice: shards run inline through
  :meth:`repro.service.ShardedQueryEngine.query`, and on the worker pool of
  :class:`repro.service.AsyncQueryEngine`, asserted result-identical per
  query.  Both paths prune the shards whose bounding box misses the
  rectangle (``pruned_pct``) and split the budget the same way, so the
  ``speedup`` column measures the executor alone: worker-pool overlap
  against thread hand-off cost, which depends on the host's core count.
  Wall-clock — not cost units — is the honest metric for a concurrency
  layer, so this benchmark, unlike the cost experiments, times with
  ``time.perf_counter``.
* **mixed churn** — one writer coroutine inserting and deleting on the
  event-loop thread of a :class:`repro.service.AsyncQueryEngine` over a
  4-shard :class:`repro.service.ShardedQueryEngine`, beside several
  readers that each pin a snapshot and query through the front end in the
  same loop step; every read is oracle-checked against its pinned map's
  live set and the snapshot's own answer (an isolation violation raises,
  so a completed run certifies zero).  ``epochs`` counts the shard maps
  published after the build.

``python benchmarks/bench_async_serving.py --quick`` runs the CI smoke
configuration (no results file written); the committed
``benchmarks/results/s3_async_serving.txt`` comes from the full run.
"""

import sys

from repro.bench.reporting import format_table
from repro.bench.serving import bench_fanout, bench_mixed, run_serving_bench

from common import record

_FANOUT_COLUMNS = [
    "shards", "budget", "queries", "seq_ms", "conc_ms", "speedup", "pruned_pct",
]
_MIXED_COLUMNS = [
    "readers", "writes", "reads", "epochs", "live_objects", "elapsed_ms",
    "violations",
]
_TITLE = "S3: async serving — sequential vs concurrent fan-out (wall-clock)"
_MIXED_TITLE = "S3: mixed read/write churn under snapshot isolation"


def run(quick: bool = False) -> None:
    rows, mixed = run_serving_bench(quick=quick)
    fanout_table = format_table(
        rows, columns=_FANOUT_COLUMNS,
        title=_TITLE + (" [quick]" if quick else ""),
    )
    mixed_table = format_table(
        [mixed], columns=_MIXED_COLUMNS,
        title=_MIXED_TITLE + (" [quick]" if quick else ""),
    )
    if quick:
        # CI smoke: print only; the committed results file comes from the
        # full run.
        print()
        print(fanout_table)
        print()
        print(mixed_table)
        return
    record("s3_async_serving", fanout_table + "\n\n" + mixed_table)


def test_async_fanout_row(benchmark):
    """Wall-clock check: inline vs pool fan-out at S=4 on a selective load.

    The benchmark fixture times one full comparison row; the row itself
    asserts per-query result equality between the two paths.
    """
    row = benchmark(
        lambda: bench_fanout(600, 30, shards=4, budget=256, repeats=1)
    )
    assert row["pruned_pct"] > 0  # the selective load must actually prune


def test_mixed_churn_zero_violations():
    """A completed mixed run certifies zero isolation violations.

    Every insert and delete publishes one shard map, so the run publishes
    a map per write: 12 inserts and 6 deletes in each of 6 batches.
    """
    row = bench_mixed(num_objects=150, batches=6, batch_size=12)
    assert row["violations"] == 0
    assert row["reads"] > 0
    assert row["epochs"] == 6 * (12 + 6)
    assert row["live_objects"] == 150 + 6 * (12 - 6)


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])

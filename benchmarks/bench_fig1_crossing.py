"""Experiment F1 — crossing sensitivity of the kd-tree (Figure 1, Lemma 10).

Figure 1 illustrates the compaction argument behind Lemma 10: in the
crossing tree T_cross of a vertical line, every even-level internal node
has one child, so compaction halves the depth and the weighted sum
Σ_z N_z^(1-1/k) over crossing leaves telescopes to O(N^(1-1/k)).

Measured here, over growing N:

* |T_cross| for a vertical line — the classic O(sqrt N) kd-tree bound;
* the crossing sensitivity summand Σ N_z^(1-1/k) observed by actual
  ORP-KW queries (via QueryStats) — Lemma 10 says O(N^(1-1/k));
* the same for full rectangles (4x the line bound, §3.3).
"""

import math

from repro.audit.probes import kd_crossing_report, register
from repro.core.orp_kw import OrpKwIndex
from repro.core.transform import QueryStats
from repro.geometry.rectangles import Rect

from common import (
    BENCH_METRICS,
    SWEEP_OBJECTS,
    measure_query,
    slope,
    standard_dataset,
    summarize_sweep,
)

_K = 2


def _rows():
    rows = []
    for num in SWEEP_OBJECTS:
        ds = standard_dataset(num)
        index = OrpKwIndex(ds, k=_K)
        n = index.input_size

        # Raw kd-tree crossing count for a vertical line (rank space: the
        # object ranks span [0, |D|), not [0, N)).
        tree = index.kd_tree()
        mid = len(ds) / 2.0
        line = Rect((mid, -1.0), (mid, float(len(ds)) + 1.0))
        cross_line = tree.count_crossing_nodes(line)

        # Crossing sensitivity observed by a real rectangle query, measured
        # through the shared audit hook so the cost distribution lands in
        # this table's metrics snapshot.
        stats = QueryStats()
        measured = measure_query(
            lambda c: index.query(
                Rect((0.2, 0.2), (0.8, 0.8)), [1, 2], counter=c, stats=stats
            )
        )

        rows.append(
            {
                "N": n,
                "line_crossing_nodes": cross_line,
                "sqrtN": round(math.sqrt(n), 1),
                "rect_crossing_nodes": stats.crossing_nodes,
                "rect_power_sum": round(stats.crossing_leaf_power_sum, 1),
                "power_bound": round(math.sqrt(n), 1),
                "cost": int(measured["cost"]),
            }
        )
        # Structural health gauges (Lemma 10) ride along in the snapshot.
        register(kd_crossing_report(tree), BENCH_METRICS)
    return rows


def test_f1_crossing_sensitivity(benchmark):
    rows = _rows()
    summarize_sweep(
        "f1_crossing",
        rows,
        [
            "N",
            "line_crossing_nodes",
            "sqrtN",
            "rect_crossing_nodes",
            "rect_power_sum",
            "power_bound",
            "cost",
        ],
        "F1 kd-tree crossing sensitivity (Lemma 10): both columns ~ sqrt(N)",
    )
    ns = [r["N"] for r in rows]
    line_slope = slope(ns, [r["line_crossing_nodes"] for r in rows])
    power_slope = slope(ns, [max(r["rect_power_sum"], 1) for r in rows])
    assert line_slope < 0.7, line_slope  # theory: 0.5
    assert power_slope < 0.8, power_slope  # theory: 0.5
    for row in rows:
        assert row["line_crossing_nodes"] <= 16 * row["sqrtN"]
        assert row["rect_power_sum"] <= 48 * row["power_bound"]

    ds = standard_dataset(SWEEP_OBJECTS[-1])
    index = OrpKwIndex(ds, k=_K)
    rect = Rect((0.2, 0.2), (0.8, 0.8))
    benchmark(lambda: index.query(rect, [1, 2]))

"""Experiment B1 — construction cost and space across the index family.

Not a paper table, but the number a downstream adopter asks first: what
does building each index cost?  All constructions here are
``O(N polylog N)`` time; the measured build-time slopes should sit close
to 1 on log-log sweeps, and space-per-unit should stay flat (modulo the
documented loglog factors).

Each cell is the least process CPU time (``time.process_time``) of
:data:`REPEATS` builds, so other processes' load and one slow run move it
less than one wall-clock shot.  The slope is fitted in microseconds: the shared log-log fit
clamps values below 1, which would flatten any fit in seconds.
"""

import time

from repro.core.dim_reduction import DimReductionOrpKw
from repro.core.lc_kw import SpKwIndex
from repro.core.orp_kw import OrpKwIndex
from repro.ksi.cohen_porat import KSetIndex
from repro.workloads.generators import adversarial_ksi_sets

from common import slope, standard_dataset, summarize_sweep

#: Builds per cell; the cell keeps the fastest.
REPEATS = 3


def _build_seconds(builder):
    """The least process CPU time of :data:`REPEATS` runs of ``builder``,
    and the last index it built."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        index = builder()
        best = min(best, time.process_time() - start)
    return best, index


def _rows():
    rows = []
    for num in (1000, 2000, 4000, 8000):
        ds2 = standard_dataset(num, dim=2)
        ds3 = standard_dataset(num, dim=3)
        sets = adversarial_ksi_sets(12, max(num // 12, 10), planted=8, seed=1)

        timings = {}
        spaces = {}
        for name, builder in (
            ("orp_kw", lambda: OrpKwIndex(ds2, k=2)),
            ("sp_kw", lambda: SpKwIndex(ds2, k=2)),
            ("dim_red", lambda: DimReductionOrpKw(ds3, k=2)),
            ("kset", lambda: KSetIndex(sets, k=2)),
        ):
            timings[name], index = _build_seconds(builder)
            spaces[name] = index.space_units / index.input_size
        rows.append(
            {
                "N": ds2.total_doc_size,
                "orp_build_us": timings["orp_kw"] * 1e6,
                "orp_build_s": round(timings["orp_kw"], 3),
                "sp_build_s": round(timings["sp_kw"], 3),
                "dimred_build_s": round(timings["dim_red"], 3),
                "kset_build_s": round(timings["kset"], 3),
                "orp_space/N": round(spaces["orp_kw"], 2),
                "dimred_space/N": round(spaces["dim_red"], 2),
            }
        )
    return rows


def test_b1_build_scaling(benchmark):
    rows = _rows()
    summarize_sweep(
        "b1_build",
        rows,
        [
            "N",
            "orp_build_s",
            "sp_build_s",
            "dimred_build_s",
            "kset_build_s",
            "orp_space/N",
            "dimred_space/N",
        ],
        "B1 construction cost (least process CPU time of "
        f"{REPEATS} builds) and space across the family",
    )
    ns = [r["N"] for r in rows]
    build_slope = slope(ns, [r["orp_build_us"] for r in rows])
    print(f"B1 orp_kw build slope (log-log, microseconds): {build_slope:.3f}")
    assert build_slope < 1.6, build_slope  # near-linear build
    space_factors = [r["orp_space/N"] for r in rows]
    assert max(space_factors) / min(space_factors) < 2.0

    ds = standard_dataset(2000)
    benchmark(lambda: OrpKwIndex(ds, k=2))

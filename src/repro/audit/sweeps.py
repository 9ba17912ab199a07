"""Seeded scaling sweeps: run every audited Table-1 family, fit exponents.

One :func:`run_row` call produces the complete audit record for a Table-1
row: the raw sweep points (parameter value, OUT, per-category cost), a
log-log :class:`~repro.audit.fit.ExponentFit` per cost category, and the
build-time :mod:`structural probes <repro.audit.probes>` — everything the
``BENCH_<row>.json`` schema persists.

Determinism contract (the gate depends on it): every dataset, query, and
bootstrap draw is seeded; no wall clock, no timestamps; rerunning with the
same mode and seed is byte-identical after serialization.

:func:`measure_query` is the shared measurement hook: the benchmark suite's
``benchmarks/common.py`` delegates here, so audit sweeps and the EXPERIMENTS
tables account cost identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.dim_reduction import DimReductionOrpKw
from ..core.dynamize import DynamicOrpKw
from ..core.nn_linf import LinfNnIndex
from ..core.orp_kw import OrpKwIndex
from ..core.srp_kw import SrpKwIndex
from ..costmodel import CATEGORIES, CostCounter
from ..errors import ValidationError
from ..geometry.rectangles import Rect
from ..partitiontree.tree import PartitionTree
from ..trace import MetricsRegistry
from ..workloads.generators import (
    WorkloadConfig,
    disjoint_pair_dataset,
    planted_dataset,
    zipf_dataset,
)
from .fit import ExponentFit, fit_exponent
from .predictions import RowPrediction, require_row
from .probes import (
    StructuralReport,
    dim_reduction_report,
    kd_crossing_report,
    partition_crossing_report,
    space_report,
)

#: BENCH report schema version; bump on any breaking shape change.
SCHEMA_VERSION = 1

#: Base RNG seed for datasets, probe queries, and bootstrap resampling.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ModeConfig:
    """Sweep sizes for one audit mode."""

    name: str
    resamples: int  #: bootstrap resamples per fitted exponent
    sweep_objects: Sequence[int]  #: object counts for cheap d<=2 builds
    small_sweep_objects: Sequence[int]  #: object counts for expensive builds
    out_values: Sequence[int]  #: planted OUT values (T1.1 OUT sweep)
    t_values: Sequence[int]  #: neighbour counts (T1.5 t sweep)
    fixed_objects: int  #: dataset size for the fixed-N sweeps


MODES: Dict[str, ModeConfig] = {
    "full": ModeConfig(
        name="full",
        resamples=200,
        sweep_objects=(1000, 2000, 4000, 8000),
        small_sweep_objects=(500, 1000, 2000, 4000),
        out_values=(16, 64, 256, 1024),
        t_values=(1, 4, 16, 64),
        fixed_objects=4000,
    ),
    "quick": ModeConfig(
        name="quick",
        resamples=64,
        sweep_objects=(500, 1000, 2000, 4000),
        small_sweep_objects=(250, 500, 1000, 2000),
        out_values=(16, 64, 256),
        t_values=(1, 4, 16),
        fixed_objects=2000,
    ),
}


def require_mode(mode: str) -> ModeConfig:
    found = MODES.get(mode)
    if found is None:
        raise ValidationError(f"unknown audit mode {mode!r}; known: {sorted(MODES)}")
    return found


def measure_query(
    fn: Callable[[CostCounter], Sequence], registry: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Run ``fn(counter)``; return ``{"out": n, "cost": {category..., total}}``.

    When a registry is supplied, the query's cost distribution also feeds it
    (``queries_total`` counter + per-category ``cost_*`` histograms) — the
    hook the benchmark tables and the audit sweeps share.
    """
    counter = CostCounter()
    result = fn(counter)
    out = len(result)
    if registry is not None:
        registry.counter("queries_total").inc()
        for category in CATEGORIES:
            registry.histogram(f"cost_{category}").observe(counter[category])
        registry.histogram("cost_total").observe(counter.total)
        registry.histogram("result_count").observe(out)
    return {"out": out, "cost": counter.snapshot()}


def _zipf(num_objects: int, dim: int, seed: int):
    """The Zipf-keyword dataset the benchmark sweeps standardize on."""
    return zipf_dataset(
        WorkloadConfig(
            num_objects=num_objects,
            dim=dim,
            vocabulary=48,
            doc_min=1,
            doc_max=4,
            zipf_s=1.0,
            seed=seed,
        )
    )


def _point(parameter: str, value: float, measured: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "parameter": parameter,
        "value": float(value),
        "out": int(measured["out"]),
        "cost": {k: int(v) for k, v in sorted(measured["cost"].items())},
    }


# -- per-row sweep runners -----------------------------------------------------


#: Planted co-occurrences per dataset in the fixed-OUT ``planted_n`` sweeps:
#: small enough that descent cost dominates output cost, large enough that the
#: planted pair reaches every region of the crossing tree.
PLANTED_OUT = 16


def _planted(num: int, dim: int, out: int = PLANTED_OUT):
    """Dataset with exactly ``out`` objects carrying both audited keywords."""
    return planted_dataset(
        num, dim, keywords=[1, 2], planted_fraction=out / num,
        seed=5, vocabulary=48,
    )


def _t1_1_index(num: int) -> OrpKwIndex:
    """T1.1's empty-output build; the Lemma-10 probe measures the largest."""
    return OrpKwIndex(disjoint_pair_dataset(num, dim=2, seed=3), k=2)


def _t1_5_index(num: int, seed: int) -> LinfNnIndex:
    """T1.5's N-sweep build; the Lemma-10 probe measures the largest."""
    return LinfNnIndex(_zipf(num, dim=2, seed=seed), k=2)


def _run_t1_1(mode: ModeConfig, seed: int, registry):
    sweeps: Dict[str, List[Dict[str, Any]]] = {
        "empty_out": [], "planted_n": [], "planted_out": [],
    }
    structural: List[StructuralReport] = []
    index = None
    for num in mode.sweep_objects:
        index = _t1_1_index(num)
        measured = measure_query(
            lambda c: index.query(Rect.full(2), [1, 2], counter=c), registry
        )
        sweeps["empty_out"].append(_point("N", index.input_size, measured))
    # Structural health on the largest build.
    structural.append(kd_crossing_report(index.kd_tree()))
    structural.append(space_report(index, per_unit_cap=64.0))

    for num in mode.sweep_objects:
        planted = OrpKwIndex(_planted(num, 2), k=2)
        measured = measure_query(
            lambda c: planted.query(Rect.full(2), [1, 2], counter=c), registry
        )
        sweeps["planted_n"].append(_point("N", planted.input_size, measured))

    num = mode.fixed_objects
    for out in mode.out_values:
        planted = OrpKwIndex(_planted(num, 2, out), k=2)
        measured = measure_query(
            lambda c: planted.query(Rect.full(2), [1, 2], counter=c), registry
        )
        sweeps["planted_out"].append(_point("OUT", measured["out"], measured))
    return sweeps, structural


def _run_t1_2(mode: ModeConfig, seed: int, registry):
    sweeps: Dict[str, List[Dict[str, Any]]] = {"empty_out": [], "planted_n": []}
    index = None
    for num in mode.small_sweep_objects:
        ds = disjoint_pair_dataset(num, dim=3, seed=3)
        index = DimReductionOrpKw(ds, k=2)
        measured = measure_query(
            lambda c: index.query(Rect.full(3), [1, 2], counter=c), registry
        )
        sweeps["empty_out"].append(_point("N", index.input_size, measured))
    for num in mode.small_sweep_objects:
        planted = DimReductionOrpKw(_planted(num, 3), k=2)
        measured = measure_query(
            lambda c: planted.query(Rect.full(3), [1, 2], counter=c), registry
        )
        sweeps["planted_n"].append(_point("N", planted.input_size, measured))
    loglog = max(math.log2(math.log2(max(index.input_size, 4))), 1.0)
    structural = [
        dim_reduction_report(index, seed=seed + 10),
        space_report(index, per_unit_cap=64.0, scale=loglog),
    ]
    return sweeps, structural


def _run_t1_5(mode: ModeConfig, seed: int, registry):
    sweeps: Dict[str, List[Dict[str, Any]]] = {"n_sweep": [], "t_sweep": []}
    q = (0.5, 0.5)
    index = None
    for num in mode.sweep_objects:
        index = _t1_5_index(num, seed)
        measured = measure_query(
            lambda c: index.query(q, 4, [1, 2], counter=c), registry
        )
        sweeps["n_sweep"].append(_point("N", index.input_size, measured))
    structural = [
        kd_crossing_report(index._index.kd_tree()),
        space_report(index, per_unit_cap=64.0),
    ]

    fixed = LinfNnIndex(_zipf(mode.fixed_objects, dim=2, seed=seed), k=2)
    for t in mode.t_values:
        measured = measure_query(
            lambda c: fixed.query(q, t, [1, 2], counter=c), registry
        )
        sweeps["t_sweep"].append(_point("t", t, measured))
    return sweeps, structural


def _run_t1_7(mode: ModeConfig, seed: int, registry):
    sweeps: Dict[str, List[Dict[str, Any]]] = {"empty_out": [], "planted_n": []}
    index = None
    ds = None
    for num in mode.small_sweep_objects:
        ds = disjoint_pair_dataset(num, dim=2, seed=3)
        index = SrpKwIndex(ds, k=2)
        measured = measure_query(
            lambda c: index.query((0.5, 0.5), 0.4, [1, 2], counter=c), registry
        )
        sweeps["empty_out"].append(_point("N", index.input_size, measured))
    for num in mode.small_sweep_objects:
        planted = SrpKwIndex(_planted(num, 2), k=2)
        measured = measure_query(
            lambda c: planted.query((0.5, 0.5), 0.4, [1, 2], counter=c), registry
        )
        sweeps["planted_n"].append(_point("N", planted.input_size, measured))
    tree = PartitionTree([obj.point for obj in ds.objects])
    structural = [
        partition_crossing_report(tree, seed=seed + 20),
        space_report(index, per_unit_cap=96.0),
    ]
    return sweeps, structural


#: Fraction of churn updates that are deletes (the rest are inserts).
CHURN_DELETE_FRACTION = 0.25


def _churned_index(num: int, seed: int, planted: bool = False) -> DynamicOrpKw:
    """A :class:`DynamicOrpKw` grown through a seeded insert/delete mix.

    Every object of the source dataset is inserted one at a time; after a
    warm-up, roughly one delete per four inserts retires a uniformly random
    live object.  The mix is fully seeded (R6), so the resulting bucket
    ladder, tombstone history, and maintenance charges are reproducible
    byte-for-byte — the determinism the gate depends on.
    """
    ds = _planted(num, 2) if planted else _zipf(num, dim=2, seed=seed)
    rng = random.Random(seed * 100003 + num)
    index = DynamicOrpKw(k=2, dim=2)
    live: List[int] = []
    for obj in ds.objects:
        live.append(index.insert(obj.point, obj.doc))
        if len(live) > 8 and rng.random() < CHURN_DELETE_FRACTION:
            victim = live.pop(rng.randrange(len(live)))
            index.delete(victim)
    return index


def _run_churn(mode: ModeConfig, seed: int, registry):
    """The dynamization row: amortized maintenance + post-churn query cost.

    ``churn_maintenance`` sweeps the *cumulative maintenance cost* (carry
    merges + compaction rebuilds, as charged to ``Dynamized.maintenance``)
    against the number of updates ``U``: Bentley–Saxe predicts ``U log U``
    rebuild participations in total, i.e. a fitted exponent just above 1.
    ``churn_query`` sweeps post-churn query cost against live input size on
    a planted workload (fixed small OUT), where the static ``sqrt(N)``
    bound picks up the ladder's ``O(log n)`` bucket fan-out.
    """
    sweeps: Dict[str, List[Dict[str, Any]]] = {
        "churn_maintenance": [], "churn_query": [],
    }
    for num in mode.sweep_objects:
        index = _churned_index(num, seed)
        updates = index.epoch.epoch_id  # one epoch per insert/delete
        sweeps["churn_maintenance"].append(
            _point(
                "U", updates,
                {"out": len(index), "cost": index.maintenance.snapshot()},
            )
        )

    index = None
    for num in mode.sweep_objects:
        index = _churned_index(num, seed, planted=True)
        measured = measure_query(
            lambda c: index.query(Rect.full(2), [1, 2], counter=c), registry
        )
        sweeps["churn_query"].append(_point("N", index.input_size, measured))
    structural = [space_report(index, per_unit_cap=64.0)]
    return sweeps, structural


_ROW_RUNNERS = {
    "CHURN": _run_churn,
    "T1.1": _run_t1_1,
    "T1.2": _run_t1_2,
    "T1.5": _run_t1_5,
    "T1.7": _run_t1_7,
}

#: Rows `audit run` covers by default, in Table-1 order.
AUDITED_ROWS = tuple(sorted(_ROW_RUNNERS))


# -- fitting + report assembly -------------------------------------------------


def _fit_sweep(
    points: List[Dict[str, Any]], resamples: int, seed: int
) -> Dict[str, ExponentFit]:
    """One exponent fit per cost category with any signal, plus ``total``."""
    xs = [p["value"] for p in points]
    fits: Dict[str, ExponentFit] = {}
    for category in tuple(CATEGORIES) + ("total",):
        ys = [p["cost"].get(category, 0) for p in points]
        if not any(ys):
            continue
        fits[category] = fit_exponent(xs, ys, resamples=resamples, seed=seed)
    return fits


def run_row(
    row: str,
    mode: str = "full",
    seed: int = DEFAULT_SEED,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Produce the full, JSON-safe audit report for one Table-1 row."""
    prediction: RowPrediction = require_row(row)
    config = require_mode(mode)
    runner = _ROW_RUNNERS[row]
    sweeps, structural = runner(config, seed, registry)
    fits = {
        name: {cat: f.to_dict() for cat, f in sorted(
            _fit_sweep(points, config.resamples, seed).items()
        )}
        for name, points in sweeps.items()
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "row": row,
        "mode": config.name,
        "seed": seed,
        "prediction": prediction.to_dict(),
        "sweeps": {
            name: {"points": points} for name, points in sorted(sweeps.items())
        },
        "fits": fits,
        "structural": [report.to_dict() for report in structural],
    }


def run_rows(
    rows: Sequence[str],
    mode: str = "full",
    seed: int = DEFAULT_SEED,
    registry: Optional[MetricsRegistry] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run several rows; returns ``{row: report}`` in input order."""
    reports: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if log is not None:
            log(f"auditing {row} ({mode} mode)")
        reports[row] = run_row(row, mode=mode, seed=seed, registry=registry)
    return reports

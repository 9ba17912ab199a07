"""Structural health probes: Figures 1-2 quantities, measured at build time.

The paper's structural lemmas are properties of the *built* index, not of
any particular query:

* Lemma 10 / Figure 1 — the kd-tree's crossing tree for a line has
  ``O(sqrt N)`` nodes (more generally ``O(N^(1-1/d))``);
* Propositions 1-3 / Figure 2 — the dimension-reduction tree has
  ``O(log log N)`` levels, every fanout is ``O(N^(1-1/k))``, and a query
  meets at most two type-2 nodes per level;
* the partition tree inherits the kd-style ``O(N^(1-1/d))`` crossing bound
  for axis-parallel ranges (Appendix D.1);
* every Table-1 structure is near-linear in space.

Each probe measures its quantity on a concrete structure, compares it to the
bound with an **explicit constant**, and returns a :class:`StructuralReport`
— a JSON-safe verdict that the audit runner persists into ``BENCH_*.json``
and :func:`register` mirrors into a :class:`~repro.trace.MetricsRegistry`
as gauges (so `QueryEngine.stats()['metrics']` exposes them).

All randomized probes take explicit seeds (reprolint R6).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..geometry.rectangles import Rect
from ..kdtree.tree import KdTree
from ..partitiontree.tree import PartitionTree
from ..trace import MetricsRegistry

#: Explicit constant for the Lemma-10 / kd-crossing bound checks.
CROSSING_CONSTANT = 16.0
#: Explicit constant for the Proposition-3 fanout bound (matches the F2 bench).
FANOUT_CONSTANT = 8.0
#: Extra levels allowed over ``log2 log2 N`` (Proposition 1, small-N slack).
HEIGHT_SLACK = 3
#: Per-level type-2 ceiling (Figure 2).
TYPE2_PER_LEVEL = 2


@dataclass
class StructuralReport:
    """One probe's measured values, the bounds they were checked against,
    and the verdict."""

    probe: str
    values: Dict[str, float] = field(default_factory=dict)
    bounds: Dict[str, float] = field(default_factory=dict)
    ok: bool = True
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "probe": self.probe,
            "values": {k: self.values[k] for k in sorted(self.values)},
            "bounds": {k: self.bounds[k] for k in sorted(self.bounds)},
            "ok": self.ok,
            "notes": self.notes,
        }


def register(
    report: StructuralReport, registry: MetricsRegistry, prefix: str = "probe"
) -> None:
    """Mirror a report into ``registry`` as gauges.

    Every measured value lands in ``<prefix>_<probe>_<key>``; the verdict in
    ``<prefix>_<probe>_ok`` (1.0 = within bounds).
    """
    for key in sorted(report.values):
        registry.gauge(f"{prefix}_{report.probe}_{key}").set(report.values[key])
    registry.gauge(f"{prefix}_{report.probe}_ok").set(1.0 if report.ok else 0.0)


# -- Figure 1: kd-tree crossing sensitivity ------------------------------------


def _axis_lines(cell: Rect, axis: int, count: int) -> List[Rect]:
    """Degenerate rectangles: ``count`` axis-parallel cuts through ``cell``."""
    lines = []
    lo, hi = cell.lo[axis], cell.hi[axis]
    for i in range(1, count + 1):
        value = lo + (hi - lo) * i / (count + 1)
        line_lo = list(cell.lo)
        line_hi = list(cell.hi)
        line_lo[axis] = value
        line_hi[axis] = value
        lines.append(Rect(line_lo, line_hi))
    return lines


def kd_crossing_report(
    tree: KdTree,
    lines_per_axis: int = 4,
    constant: float = CROSSING_CONSTANT,
) -> StructuralReport:
    """Lemma 10 / Figure 1: worst |T_cross| over axis-parallel lines.

    The bound is ``constant * n^(1-1/d)`` (``sqrt n`` for the d=2 trees the
    Theorem-1 index builds).
    """
    n = int(tree.root.size)
    exponent = 1.0 - 1.0 / max(tree.dim, 2)
    bound = constant * n**exponent
    worst = 0
    for axis in range(tree.dim):
        for line in _axis_lines(tree.root.cell, axis, lines_per_axis):
            worst = max(worst, tree.count_crossing_nodes(line))
    return StructuralReport(
        probe="kd_crossing",
        values={
            "n": float(n),
            "max_line_crossing_nodes": float(worst),
            "crossing_per_bound": worst / bound if bound else 0.0,
        },
        bounds={"max_line_crossing_nodes": bound},
        ok=worst <= bound,
        notes=f"Lemma 10: |T_cross| <= {constant:g} * n^{exponent:.3g} over "
        f"{lines_per_axis} cuts per axis",
    )


# -- Figure 2: dimension-reduction tree ----------------------------------------


def dim_reduction_report(
    index,
    seed: int = 17,
    queries: int = 8,
    keywords=(1, 2),
) -> StructuralReport:
    """Propositions 1-3 / Figure 2 on a built :class:`DimReductionOrpKw`.

    Checks height ``<= log2 log2 N + HEIGHT_SLACK`` (P1), max fanout
    ``<= FANOUT_CONSTANT * sqrt(N) + 8`` (P3), and — over ``queries`` seeded
    x-slab queries — at most :data:`TYPE2_PER_LEVEL` type-2 nodes per level.
    """
    n = index.input_size
    height = index.height()
    height_bound = math.log2(math.log2(max(n, 4))) + HEIGHT_SLACK
    fanout = index.max_fanout()
    fanout_bound = FANOUT_CONSTANT * math.sqrt(n) + 8
    rng = random.Random(seed)
    worst_type2 = 0
    for _ in range(queries):
        a, b = sorted((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)))
        rect = Rect((a,) + (0.0,) * (index.dim - 1), (b,) + (1.0,) * (index.dim - 1))
        counts = index.per_level_counts(rect, keywords)
        for count in counts.get("type2", {}).values():
            worst_type2 = max(worst_type2, count)
    ok = (
        height <= height_bound
        and fanout <= fanout_bound
        and worst_type2 <= TYPE2_PER_LEVEL
    )
    return StructuralReport(
        probe="dim_reduction",
        values={
            "n": float(n),
            "height": float(height),
            "max_fanout": float(fanout),
            "max_type2_per_level": float(worst_type2),
        },
        bounds={
            "height": height_bound,
            "max_fanout": fanout_bound,
            "max_type2_per_level": float(TYPE2_PER_LEVEL),
        },
        ok=ok,
        notes="Propositions 1-3 / Figure 2 over "
        f"{queries} seeded x-slab queries (seed={seed})",
    )


# -- partition tree ------------------------------------------------------------


def partition_crossing_report(
    tree: PartitionTree,
    seed: int = 11,
    rects: int = 6,
    constant: float = CROSSING_CONSTANT,
) -> StructuralReport:
    """Crossing counts of a partition tree for seeded axis-parallel boxes.

    The kd-box scheme keeps the classic ``O(n^(1-1/d))`` crossing bound for
    axis-parallel ranges; a rectangle has ``2d`` facets, so the constant is
    scaled by ``2 * dim`` relative to the single-line bound.
    """
    n = int(tree.root.size)
    exponent = 1.0 - 1.0 / max(tree.dim, 2)
    bound = 2 * tree.dim * constant * n**exponent
    rng = random.Random(seed)
    root_cell = tree.root.cell
    if not isinstance(root_cell, Rect):
        root_cell = Rect(
            tree.points.min(axis=0) - 1.0, tree.points.max(axis=0) + 1.0
        )
    worst = 0
    for _ in range(rects):
        lo, hi = [], []
        for axis in range(tree.dim):
            a, b = sorted(
                (
                    rng.uniform(root_cell.lo[axis], root_cell.hi[axis]),
                    rng.uniform(root_cell.lo[axis], root_cell.hi[axis]),
                )
            )
            lo.append(a)
            hi.append(b)
        worst = max(worst, tree.count_crossing_nodes(Rect(lo, hi)))
    return StructuralReport(
        probe="partition_crossing",
        values={
            "n": float(n),
            "max_rect_crossing_nodes": float(worst),
            "crossing_per_bound": worst / bound if bound else 0.0,
        },
        bounds={"max_rect_crossing_nodes": bound},
        ok=worst <= bound,
        notes=f"{rects} seeded axis-parallel boxes (seed={seed}); bound "
        f"{2 * tree.dim} * {constant:g} * n^{exponent:.3g}",
    )


# -- space ---------------------------------------------------------------------


def space_report(index, per_unit_cap: float, scale: float = 1.0) -> StructuralReport:
    """Near-linear space: ``space_units / (scale * N) <= per_unit_cap``.

    ``scale`` folds in any permitted superlinear factor — pass
    ``log2(log2(N))`` for the Theorem-2 ``N loglog N`` budget.
    """
    n = index.input_size
    per_unit = index.space_units / (scale * n) if n else 0.0
    return StructuralReport(
        probe="space",
        values={
            "n": float(n),
            "space_units": float(index.space_units),
            "space_per_unit": per_unit,
        },
        bounds={"space_per_unit": per_unit_cap},
        ok=per_unit <= per_unit_cap,
        notes=f"space_units / ({scale:g} * N) vs cap {per_unit_cap:g}",
    )


# -- serving-layer hook --------------------------------------------------------


def engine_reports(engine, seed: int = 17) -> List[StructuralReport]:
    """Structural probes for a :class:`~repro.service.engine.QueryEngine`.

    Probes the k=2 fused index's kd-tree (Fig. 1), rebuilt whole from its
    rank objects, when one exists, plus the engine's overall space.  Returns
    the reports without registering them —
    :meth:`QueryEngine.probe_structure` registers into ``engine.metrics``.
    """
    reports: List[StructuralReport] = []
    index = getattr(engine, "_index", None)
    if index is not None and engine.max_k >= 2:
        fused = index.fused_for(2)
        reports.append(kd_crossing_report(fused.kd_tree()))
    reports.append(space_report(engine, per_unit_cap=64.0))
    return reports


def register_all(
    reports: List[StructuralReport],
    registry: Optional[MetricsRegistry],
    prefix: str = "probe",
) -> None:
    if registry is None:
        return
    for report in reports:
        register(report, registry, prefix=prefix)

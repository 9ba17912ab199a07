"""Compare two sets of benchmark runs under the bounds in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
        [--spec BENCHMARK.json] [--claim WORKLOAD:METRIC ...]

Each directory holds the run JSONs that ``run.py --out DIR`` writes.  The
end-to-end metrics are those in ``BENCHMARK.json``, which every workload
reports, and the workload-scoped ones in ``SCOPED``, which only the
workloads they apply to report.  Every (workload, end-to-end metric) pair
present on both sides gets one verdict:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* ``improved`` — the rule for claiming a gain holds: the change wins at
  least nine tenths of the runs paired by seed (ties count for neither),
  and the medians differ by more than the parent's spread, the distance
  between its first and third quartiles;
* ``unresolved`` — the parent's spread is wider than the bound, and neither
  every change run reads better than every parent run nor every one worse;
* ``unchanged`` — otherwise.

A metric whose values repeat exactly on both sides is compared exactly: any
move is a regression or an improvement.  ``--claim WORKLOAD:METRIC`` names
a pair that must come out ``improved``.  The exit status is 1 when any pair
regressed or any claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: End-to-end metrics that mean something on only some workloads, so they
#: cannot be in ``BENCHMARK.json``, whose end-to-end metrics every workload
#: reports.  ``run.py`` reports each only where it applies: the write
#: latencies on churn, the degraded share where reads have a budget
#: (serve-hot, churn), the failed share everywhere.  A run should fail
#: nothing, so any rise of ``fail_frac``'s median is a regression.
SCOPED = [
    {"name": "write_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "write_p99_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "degraded_frac", "unit": "ratio", "better": "lower", "bound": 0.10},
    {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
]

#: (workload, metric) -> {seed: value}
Runs = Dict[Tuple[str, str], Dict[int, float]]


def load_runs(directory: Path) -> Runs:
    runs: Runs = {}
    for path in sorted(directory.glob("*.json")):
        run = json.loads(path.read_text())
        for metric, entry in run["metrics"].items():
            runs.setdefault((run["workload"], metric), {})[run["seed"]] = entry["value"]
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartiles (the value itself for a single run)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = (change - parent) if better == "lower" else (parent - change)
    return delta / abs(parent) if parent else (0.0 if delta == 0 else delta)


def verdict(parent: Dict[int, float], change: Dict[int, float], better: str,
            bound: float) -> str:
    """One pair's verdict under the rules in the module docstring."""
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_med = statistics.median(p_vals)
    worse = worse_by(p_med, statistics.median(c_vals), better)
    if len(set(p_vals)) == 1 and len(set(c_vals)) == 1:
        return "regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"
    q1, q3 = quartiles(p_vals)
    if p_med:
        spread = (q3 - q1) / abs(p_med)
    else:
        spread = 0.0 if q1 == q3 else float("inf")
    if spread > bound:
        every_run = [worse_by(p, c, better) for p in p_vals for c in c_vals]
        if worse > bound and all(w > 0 for w in every_run):
            return "regressed"
        if not all(w < 0 for w in every_run):
            return "unresolved"
    elif worse > bound:
        return "regressed"
    return "improved" if claim_met(parent, change, better) else "unchanged"


def claim_met(parent: Dict[int, float], change: Dict[int, float], better: str) -> bool:
    """The rule for claiming a gain, over runs paired by seed."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return False
    wins = sum(worse_by(parent[s], change[s], better) < 0 for s in seeds)
    p_vals = list(parent.values())
    p_med = statistics.median(p_vals)
    q1, q3 = quartiles(p_vals)
    gap = -worse_by(p_med, statistics.median(change.values()), better) * abs(p_med)
    return wins >= 0.9 * len(seeds) and gap > q3 - q1


def compare(parent: Runs, change: Runs, spec: dict) -> List[Tuple[str, str, str, str]]:
    """Rows of (workload, metric, summary, verdict) for every shared pair."""
    rows = []
    for metric in spec["end_to_end"] + SCOPED:
        name = metric["name"]
        for workload in (w["name"] for w in spec["workloads"]):
            key = (workload, name)
            if key not in parent or key not in change:
                continue
            p_vals, c_vals = list(parent[key].values()), list(change[key].values())
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            q1, q3 = quartiles(p_vals)
            move = f"{(c_med - p_med) / p_med * 100:+.1f}%" if p_med else f"{c_med - p_med:+.4g}"
            summary = (f"{p_med:.4g} [{q1:.4g}, {q3:.4g}] -> {c_med:.4g} {metric['unit']}"
                       f" ({move}, bound {metric['bound'] * 100:.0f}%)")
            rows.append((workload, name, summary,
                         verdict(parent[key], change[key], metric["better"],
                                 metric["bound"])))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=SPEC)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    rows = compare(parent, change, spec)
    for workload, metric, summary, outcome in rows:
        print(f"{workload:15s} {metric:18s} {outcome:10s} {summary}")
    status = int(any(outcome == "regressed" for *_rest, outcome in rows))
    outcomes = {(workload, metric): outcome for workload, metric, _s, outcome in rows}
    for claim in args.claim:
        workload, _sep, metric = claim.partition(":")
        if (workload, metric) not in outcomes:
            parser.error(f"--claim {claim}: no such pair in both run sets")
        met = outcomes[(workload, metric)] == "improved"
        print(f"claim {claim}: {'met' if met else 'not met'}")
        status |= not met
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Serving benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--out DIR]
                                  [--trace 0|1] [--plant LAYER=FACTOR]

Without ``--workload`` every workload runs in its own fresh subprocess, one
after another.  A run builds its engine and warms it up three times (the
median is ``setup_s``), serves the workload's untraced window of a fixed
number of operations, which yields the end-to-end metrics, then a shorter
traced window, continuing the same stream, which yields the per-layer
metrics.  Sampled answers are checked against a brute-force oracle after
the windows.

Every metric is printed with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Its
metrics are all of them, or with ``--trace 0`` the end-to-end metrics every
workload reports and with ``--trace 1`` the per-layer ones.  The exit
status is 1 when an answer disagrees with the oracle or an operation
raised, and 2 on a usage error or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time
from typing import Dict, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Engine construction + warm-up is timed this many times; setup_s is the median.
SETUP_REPEATS = 3

Metrics = Dict[str, Tuple[float, str]]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def resident_bytes() -> int:
    """This process's resident set size now (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * resource.getpagesize()
    except OSError:
        return 0


def end_to_end(win, setup_s: float, peak_rss_bytes: int) -> Metrics:
    """The metrics every workload reports (``BENCHMARK.json``'s end_to_end)."""
    ops = len(win.read_s) + len(win.insert_s) + len(win.delete_s)
    return {
        "setup_s": (setup_s, "s"),
        "read_p50_ms": (percentile(win.read_s, 0.50) * 1e3, "ms"),
        "read_p99_ms": (percentile(win.read_s, 0.99) * 1e3, "ms"),
        "throughput_ops_s": (ratio(ops, win.busy_s), "ops/s"),
        "cost_units_per_op": (ratio(win.cost_units, win.served), "units"),
        "peak_rss_mb": (peak_rss_bytes / 2**20, "MB"),
    }


def scoped(workload, win, result: dict) -> Metrics:
    """End-to-end metrics of only the workloads they apply to; ``compare.py``
    holds their bounds."""
    metrics: Metrics = {"fail_frac": (ratio(result["failed"], result["attempted"]), "ratio")}
    if workload.writes:
        writes = win.insert_s + win.delete_s
        metrics["write_p50_ms"] = (percentile(writes, 0.50) * 1e3, "ms")
        metrics["write_p99_ms"] = (percentile(writes, 0.99) * 1e3, "ms")
    if workload.budgeted:
        metrics["degraded_frac"] = (ratio(win.degraded, win.served), "ratio")
    return metrics


def per_layer(untraced, traced, timer, gc_monitor, events: int) -> Metrics:
    """Layer metrics from the traced window; the collector's from the
    untraced one.  Shares of time are shares of the window's process CPU
    time."""
    from layers import fit_line

    stats = timer.stats()
    cpu = traced.cpu_s
    reads = len(traced.read_s)
    executed = traced.served - traced.hits
    plan = traced.strategies
    planned = plan["fused"] + plan["keywords_only"] + plan["structured_only"]
    metrics: Metrics = {}

    def layer(name: str, prefix: str) -> None:
        entry = stats[name]
        metrics[f"{prefix}.us_per_call"] = (ratio(entry.self_s, entry.calls) * 1e6, "us")
        metrics[f"{prefix}.time_frac"] = (ratio(entry.self_s, cpu), "ratio")

    engine = stats["service.engine"]
    metrics["engine.self_us"] = (ratio(engine.self_s, engine.calls) * 1e6, "us")
    metrics["engine.calls_per_read"] = (ratio(engine.calls, reads), "count")
    metrics["cache.hit_frac"] = (ratio(traced.hits, traced.served), "ratio")
    cache = stats["service.cache"]
    metrics["cache.us_per_call"] = (ratio(cache.self_s, cache.calls) * 1e6, "us")
    layer("core.planner", "planner")
    for strategy in ("fused", "keywords_only", "structured_only"):
        metrics[f"planner.{strategy}_frac"] = (ratio(plan[strategy], planned), "ratio")
    metrics["planner.fallbacks_per_read"] = (ratio(traced.fallbacks, reads), "count")
    for name, prefix in (("core.orp_kw", "index.fused"),
                         ("core.baselines.keywords_only", "index.keywords_only"),
                         ("core.baselines.structured_only", "index.structured_only")):
        layer(name, prefix)
        # The outside view of the descent-vs-reporting split.
        fixed, per_result = fit_line(stats[name].samples)
        metrics[f"{prefix}.us_fixed"] = (fixed * 1e6, "us")
        metrics[f"{prefix}.us_per_result"] = (per_result * 1e6, "us")
    layer("fast.backend", "fast")
    metrics["fast.vectorized_frac"] = (
        ratio(traced.backends["vectorized"], executed), "ratio")

    sharding = stats["service.sharding"]
    writing = stats["service.sharding.write"]
    metrics["sharding.self_us"] = (ratio(sharding.self_s, sharding.calls) * 1e6, "us")
    metrics["sharding.time_frac"] = (ratio(sharding.self_s + writing.self_s, cpu), "ratio")
    metrics["sharding.shards_per_read"] = (
        ratio(traced.slices - plan["pruned"], executed), "count")
    metrics["sharding.pruned_frac"] = (ratio(plan["pruned"], traced.slices), "ratio")
    metrics["sharding.delta_len_mean"] = (
        ratio(sum(traced.delta_len), len(traced.delta_len)), "count")
    metrics["sharding.tombstones_mean"] = (
        ratio(sum(traced.tombstones), len(traced.tombstones)), "count")
    # Rebalances are rare: count them over both windows of the run.
    metrics["sharding.rebalances"] = (untraced.rebalances + traced.rebalances, "count")
    metrics["sharding.rebalance_ms_total"] = (
        (untraced.rebalance_s + traced.rebalance_s) * 1e3, "ms")
    metrics["sharding.insert_us"] = (
        ratio(sum(traced.insert_s), len(traced.insert_s)) * 1e6, "us")
    metrics["sharding.delete_us"] = (
        ratio(sum(traced.delete_s), len(traced.delete_s)) * 1e6, "us")

    front = stats["service.async_engine"]
    metrics["async.query_us"] = (ratio(front.total_s, front.calls) * 1e6, "us")
    metrics["async.shed_frac"] = (ratio(traced.shed, traced.attempted), "ratio")
    # The worker pool's utilization: its busy time over the window's span.
    pool = sum(entry.self_s for entry in timer.stats("repro-serve").values())
    metrics["async.pool_busy_frac"] = (ratio(pool, traced.busy_s), "ratio")
    telemetry = stats["telemetry"]
    metrics["telemetry.us_per_read"] = (ratio(telemetry.self_s, reads) * 1e6, "us")
    metrics["telemetry.events_per_read"] = (ratio(events, reads), "count")

    metrics["gc.gen2_collections"] = (gc_monitor.collections[2], "count")
    metrics["gc.pause_ms_total"] = (gc_monitor.pause_s * 1e3, "ms")
    metrics["gc.pause_ms_max"] = (gc_monitor.max_pause_s * 1e3, "ms")
    # Wall-clock read latency: the call (closed loop), or from when the
    # request was due (serve-hot's open loop), with every wait in it.
    metrics["wall.read_p50_ms"] = (percentile(traced.wall_s, 0.50) * 1e3, "ms")
    metrics["wall.read_p99_ms"] = (percentile(traced.wall_s, 0.99) * 1e3, "ms")
    metrics["generator.late_p99_ms"] = (percentile(traced.late_s, 0.99) * 1e3, "ms")
    covered = sum(entry.self_s for entry in stats.values())
    metrics["trace.coverage"] = (ratio(covered, cpu), "ratio")
    metrics["trace.overhead_frac"] = (
        ratio(ratio(cpu, traced.attempted), ratio(untraced.cpu_s, untraced.attempted)) - 1.0,
        "ratio")
    return metrics


def run_workload(args, layers) -> int:
    from calibrate import REFERENCE_S, Calibrator
    from layers import GcMonitor, LayerTimer
    from oracle import replay
    from workloads import WORKLOADS

    planter: Optional[LayerTimer] = None
    if args.plant:
        planter = LayerTimer(
            [layer for layer in layers if layer.name in args.plant],
            plant=args.plant, record=False,
        )
        planter.install()
    # The kernel's data stays resident for the whole run; peak_rss_mb leaves it out.
    before = resident_bytes()
    calibrator = Calibrator()
    calibration_bytes = resident_bytes() - before
    workload = WORKLOADS[args.workload](args.seed)
    setups, kernels = [], []
    for _ in range(SETUP_REPEATS):
        workload.close()
        gc.collect()
        kernels.append(calibrator.measure())
        start = process_time()
        workload.build()
        setups.append(process_time() - start)
        kernels.append(calibrator.measure())
    # One factor, from the median kernel run, so that a single slow kernel
    # run cannot skew a build's time.
    setup_s = statistics.median(setups) * REFERENCE_S / statistics.median(kernels)
    # Every run starts its window from the same collector state.
    gc.collect()
    with GcMonitor() as gc_monitor:
        untraced = workload.window(workload.window_ops, calibrator)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - calibration_bytes
    if planter is not None:
        planter.uninstall()
    timer = LayerTimer(layers, plant=args.plant)
    events_before = workload.events.last_seq if workload.events else 0
    with timer:
        traced = workload.traced_window(workload.traced_ops, calibrator)
    events = (workload.events.last_seq if workload.events else 0) - events_before
    workload.close()

    checked, mismatches = replay(workload.base_objects(), workload.log)
    windows = (untraced, traced)
    raised = sum(win.raised for win in windows)
    result = {
        "correct": mismatches == 0 and raised == 0,
        "attempted": sum(win.attempted for win in windows),
        "failed": sum(win.shed + win.raised for win in windows) + mismatches,
    }
    groups = {
        "end-to-end": end_to_end(untraced, setup_s, peak_rss),
        "scoped": scoped(workload, untraced, result),
        "per-layer": per_layer(untraced, traced, timer, gc_monitor, events),
    }
    for group, metrics in groups.items():
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {group} {name} {value:.6g} {unit}")
    print(f"{args.workload} oracle checked={checked} mismatches={mismatches}")
    chosen = {0: ["end-to-end"], 1: ["per-layer"]}.get(args.trace, list(groups))
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for group in chosen for name, (value, unit) in groups[group].items()}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}"
        everything = {name: {"value": value, "unit": unit}
                      for metrics in groups.values() for name, (value, unit) in metrics.items()}
        run = dict(result, metrics=everything, workload=args.workload, seed=args.seed,
                   plant=args.plant)
        (args.out / f"{tag}.json").write_text(json.dumps(run, indent=1) + "\n")
        with open(args.out / f"spans-{tag}.jsonl", "w") as spans:
            for span in timer.spans():
                spans.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, names: Sequence[str]) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    summary = {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        for layer, factor in args.plant.items():
            command += ["--plant", f"{layer}={factor}"]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = None
            status = max(status, 1)
    print(json.dumps(summary))
    return status


def parse_plant(text: str) -> Tuple[str, float]:
    layer, sep, factor = text.partition("=")
    try:
        value = float(factor)
    except ValueError:
        value = 0.0
    if not sep or value < 1.0:
        raise argparse.ArgumentTypeError(f"expected LAYER=FACTOR with FACTOR >= 1, got {text!r}")
    return layer, value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write run JSONs and spans here")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="the last line's metrics: 0 end-to-end, 1 per-layer "
                             "(default: all); every run measures both windows")
    parser.add_argument("--seconds", type=float,
                        help="ignored: windows are fixed operation counts, so that two "
                             "commits do the same work; accepted so that callers that "
                             "pass a run length need not special-case this benchmark")
    parser.add_argument("--plant", type=parse_plant, action="append", default=[],
                        metavar="LAYER=FACTOR",
                        help="make one layer FACTOR times slower (self-check)")
    args = parser.parse_args(argv)
    args.plant = dict(args.plant)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # The checkout's own sources, ahead of any installed copy.
    sys.path.insert(0, str(SRC))
    from layers import plantable, serving_layers
    from workloads import WORKLOADS

    layers = serving_layers()
    known = plantable(layers)
    if set(args.plant) - known:
        parser.error(f"--plant: choose layers from {', '.join(sorted(known))}")
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload: choose from {', '.join(WORKLOADS)}")
    return run_workload(args, layers)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: build, persist, and query indexes on JSONL data.

Dataset file format: one JSON object per line, each with a ``point`` array
and a ``doc`` array of integer keywords, e.g.

    {"point": [120.0, 8.5], "doc": [1, 2, 3]}

Usage examples::

    python -m repro.cli build  data.jsonl index.bin --kind orp --k 2
    python -m repro.cli query  index.bin --rect 100 8 200 10 --keywords 1 3
    python -m repro.cli nearest index.bin --point 150 9 --t 3 --keywords 1 3
    python -m repro.cli info   index.bin
    python -m repro.cli demo

The serving layer (``--kind engine``) adds batched, budget-bounded queries;
``--kind sharded --shards S`` builds the spatially sharded, fan-out variant
(same ``batch``/``stats`` commands; traces carry per-shard slices):

    python -m repro.cli build data.jsonl engine.bin --kind engine --k 3
    python -m repro.cli build data.jsonl engine.bin --kind sharded --shards 4
    python -m repro.cli batch engine.bin --queries q.jsonl --budget 64 --save
    python -m repro.cli stats engine.bin
    python -m repro.cli trace engine.bin --rect 100 8 200 10 --keywords 1 3

``trace`` serves one query with span recording on and prints the resulting
cost-span tree (``--format json`` for the raw ``to_dict`` rendering); it
accepts orp, engine, and sharded indexes.

``serve`` pushes the same workload through the asyncio front end —
concurrent per-shard fan-out with admission control (queries above the
in-flight cost bound are shed, not queued) — and ``bench-serve`` runs the
S3 async-serving benchmark:

    python -m repro.cli serve engine.bin --queries q.jsonl --budget 64 \
        --max-inflight-cost 512 --concurrency 4
    python -m repro.cli bench-serve --quick

Telemetry commands read a saved engine's instruments (``batch --save``
persists them with the index):

    python -m repro.cli metrics engine.bin              # OpenMetrics text
    python -m repro.cli top engine.bin                  # p50/p90/p99 + planner
    python -m repro.cli events engine.bin --queries q.jsonl

``events`` replays a workload with a structured event log attached and
prints the retained events as JSON lines.  ``serve --telemetry-dir DIR``
additionally writes ``metrics.prom``, ``events.jsonl``, ``traces.jsonl``
(tail-sampled slow/shed/degraded query traces), and ``stats.json`` after
the workload drains; ``--slo-p99-cost`` / ``--slo-shed-rate`` /
``--slo-exhausted-rate`` arm the SLO burn-rate monitor whose verdicts
feed admission control (SLO sheds carry ``reason="shed:slo:<objective>"``).

where ``q.jsonl`` holds one query per line, e.g.
``{"rect": [100, 8, 200, 10], "keywords": [1, 3]}`` (lo coords then hi
coords).  ``batch`` prints one JSON trace per query; ``--results`` prints the
matches too; ``--save`` writes the engine (with its updated cache and stats)
back to the index file.

All query commands print one JSON object per reported match plus a summary
line (count + RAM-model cost units) on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .costmodel import CostCounter
from .dataset import Dataset, RectangleObject, make_objects
from .errors import ReproError, ValidationError
from .fast import BACKENDS
from .geometry.rectangles import Rect
from .core.lc_kw import LcKwIndex
from .core.nn_linf import LinfNnIndex
from .core.orp_kw import OrpKwIndex
from .core.rr_kw import RrKwIndex
from .core.srp_kw import SrpKwIndex
from .persist import load_index, save_index
from .service import QueryEngine, ShardedQueryEngine
from .trace import TraceSpan, Tracer

#: --kind values accepted by `build` (rr reads {lo, hi, doc} records;
#: engine/sharded build the serving layer, --k becomes its max_k).
INDEX_KINDS = {
    "orp": OrpKwIndex,
    "lc": LcKwIndex,
    "linf-nn": LinfNnIndex,
    "srp": SrpKwIndex,
    "rr": RrKwIndex,
    "engine": QueryEngine,
    "sharded": ShardedQueryEngine,
}

#: Index classes the serving commands (`batch`, `stats`) accept.
ENGINE_KINDS = (QueryEngine, ShardedQueryEngine)


def load_jsonl_dataset(path: str) -> Dataset:
    """Read a JSONL dataset (see module docstring for the record format)."""
    points: List[List[float]] = []
    docs: List[List[int]] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                points.append([float(c) for c in record["point"]])
                docs.append([int(w) for w in record["doc"]])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    f"{path}:{line_number}: bad record ({exc})"
                ) from exc
    if not points:
        raise ValidationError(f"{path}: no records")
    return Dataset(make_objects(points, docs))


def _emit(objects, counter: CostCounter) -> None:
    for obj in objects:
        print(json.dumps({"oid": obj.oid, "point": list(obj.point), "doc": sorted(obj.doc)}))
    print(
        f"# {len(objects)} match(es), {counter.total} cost units",
        file=sys.stderr,
    )


def load_jsonl_rectangles(path: str) -> List[RectangleObject]:
    """Read a JSONL rectangle dataset: ``{"lo": [...], "hi": [...], "doc": [...]}``."""
    rectangles: List[RectangleObject] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                rectangles.append(
                    RectangleObject(
                        oid=len(rectangles),
                        lo=tuple(float(c) for c in record["lo"]),
                        hi=tuple(float(c) for c in record["hi"]),
                        doc=frozenset(int(w) for w in record["doc"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    f"{path}:{line_number}: bad rectangle record ({exc})"
                ) from exc
    if not rectangles:
        raise ValidationError(f"{path}: no records")
    return rectangles


def _build_dynamic_index(kind: str, dataset: Dataset, k: int):
    """Build a Bentley–Saxe dynamized index and bulk-load the dataset.

    The load goes through :meth:`insert_many` (one carry merge, one
    published epoch), so the saved index supports further inserts and
    deletes after ``load_index`` — the point of ``build --dynamic``.
    """
    from .core.dynamize import (
        DynamicKeywordsOnly,
        DynamicLcKw,
        DynamicMultiKOrp,
        DynamicOrpKw,
        DynamicSrpKw,
    )

    dim = dataset.dim
    if kind == "orp":
        index = DynamicOrpKw(k=k, dim=dim)
    elif kind == "lc":
        index = DynamicLcKw(k=k, dim=dim)
    elif kind == "srp":
        index = DynamicSrpKw(k=k, dim=dim)
    elif kind == "keywords":
        index = DynamicKeywordsOnly(dim=dim)
    elif kind == "multi":
        index = DynamicMultiKOrp(dim=dim, max_k=k)
    else:
        raise ValidationError(
            f"--dynamic is not supported for --kind {kind}; "
            "dynamizable kinds: keywords, lc, multi, orp, srp"
        )
    index.insert_many(
        [obj.point for obj in dataset.objects],
        [obj.doc for obj in dataset.objects],
    )
    return index


def cmd_build(args: argparse.Namespace) -> int:
    if args.dynamic:
        dataset = load_jsonl_dataset(args.dataset)
        index = _build_dynamic_index(args.kind, dataset, args.k)
        save_index(index, args.index)
        print(
            f"# built {type(index).__name__} over {len(dataset)} objects "
            f"(N={dataset.total_doc_size}), saved to {args.index}",
            file=sys.stderr,
        )
        return 0
    if args.kind in ("keywords", "multi"):
        raise ValidationError(f"--kind {args.kind} requires --dynamic")
    index_cls = INDEX_KINDS[args.kind]
    if args.kind == "rr":
        rectangles = load_jsonl_rectangles(args.dataset)
        index = index_cls(rectangles, k=args.k)
        described = f"{len(rectangles)} rectangles (N={index.input_size})"
    elif args.kind == "engine":
        dataset = load_jsonl_dataset(args.dataset)
        index = QueryEngine(
            dataset,
            max_k=args.k,
            default_budget=args.budget,
            backend=args.backend,
        )
        described = f"{len(dataset)} objects (N={dataset.total_doc_size})"
    elif args.kind == "sharded":
        dataset = load_jsonl_dataset(args.dataset)
        index = ShardedQueryEngine(
            dataset,
            shards=args.shards,
            max_k=args.k,
            default_budget=args.budget,
            backend=args.backend,
        )
        described = (
            f"{len(dataset)} objects (N={dataset.total_doc_size}) "
            f"across {args.shards} shard(s)"
        )
    else:
        dataset = load_jsonl_dataset(args.dataset)
        index = index_cls(dataset, k=args.k)
        described = f"{len(dataset)} objects (N={dataset.total_doc_size})"
    save_index(index, args.index)
    print(
        f"# built {index_cls.__name__} over {described}, saved to {args.index}",
        file=sys.stderr,
    )
    return 0


def load_jsonl_queries(path: str):
    """Read a JSONL query workload: ``{"rect": [lo..., hi...], "keywords": [...]}``."""
    queries = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                coords = [float(c) for c in record["rect"]]
                keywords = [int(w) for w in record["keywords"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    f"{path}:{line_number}: bad query record ({exc})"
                ) from exc
            queries.append((coords, keywords))
    if not queries:
        raise ValidationError(f"{path}: no queries")
    return queries


def cmd_batch(args: argparse.Namespace) -> int:
    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    queries = load_jsonl_queries(args.queries)
    results = engine.batch(queries, budget=args.budget)
    traces = engine.records[-len(queries):]
    for found, record in zip(results, traces):
        print(record.to_json())
        if args.results:
            for obj in found:
                print(
                    json.dumps(
                        {"oid": obj.oid, "point": list(obj.point), "doc": sorted(obj.doc)}
                    )
                )
    if args.save:
        save_index(engine, args.index)
    cache = engine.cache.stats()
    fallbacks = sum(len(record.fallbacks) for record in traces)
    degraded = sum(1 for record in traces if record.degraded)
    print(
        f"# {len(queries)} quer{'y' if len(queries) == 1 else 'ies'}, "
        f"{cache['hits']} cache hit(s), {fallbacks} fallback(s), "
        f"{degraded} degraded, {engine.counter.total} lifetime cost units",
        file=sys.stderr,
    )
    return 0


def _build_slo_monitor(args: argparse.Namespace):
    """An :class:`SLOMonitor` from the serve flags, or ``None`` if unarmed."""
    if (
        args.slo_p99_cost is None
        and args.slo_shed_rate is None
        and args.slo_exhausted_rate is None
    ):
        return None
    from .telemetry import SLOMonitor

    return SLOMonitor(
        window=args.slo_window,
        p99_cost_target=args.slo_p99_cost,
        max_shed_rate=args.slo_shed_rate,
        max_budget_exhausted_rate=args.slo_exhausted_rate,
    )


def _write_telemetry_dir(directory: str, engine, front) -> None:
    """Dump the serve run's telemetry artifacts into ``directory``."""
    import os

    from .telemetry import render_openmetrics

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "metrics.prom"), "w") as handle:
        handle.write(render_openmetrics(engine.metrics))
    with open(os.path.join(directory, "events.jsonl"), "w") as handle:
        text = front.events.export_jsonl()
        if text:
            handle.write(text + "\n")
    with open(os.path.join(directory, "traces.jsonl"), "w") as handle:
        for retained in front.sampler.retained():
            handle.write(json.dumps(retained.to_dict(), sort_keys=True) + "\n")
    with open(os.path.join(directory, "stats.json"), "w") as handle:
        handle.write(json.dumps(front.stats(), sort_keys=True, indent=2) + "\n")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a JSONL workload concurrently through the async front end."""
    import asyncio

    from .service import AsyncQueryEngine

    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    queries = load_jsonl_queries(args.queries)
    telemetry_kwargs = {}
    slo = _build_slo_monitor(args)
    if slo is not None:
        telemetry_kwargs["slo"] = slo
    if args.telemetry_dir is not None:
        from .telemetry import EventLog, TailSampler

        telemetry_kwargs["events"] = EventLog()
        telemetry_kwargs["sampler"] = TailSampler()
    front = AsyncQueryEngine(
        engine,
        max_inflight_cost=args.max_inflight_cost,
        max_workers=args.concurrency,
        **telemetry_kwargs,
    )
    try:
        results = asyncio.run(front.batch(queries, budget=args.budget))
    finally:
        front.close()
    if args.telemetry_dir is not None:
        _write_telemetry_dir(args.telemetry_dir, engine, front)
    served = 0
    for i, found in enumerate(results):
        if found is None:
            entry = {"query": i, "shed": True}
            if slo is None:
                # With the SLO monitor armed a shed may instead carry
                # reason="shed:slo:<objective>" — the per-query attribution
                # lives in the engine records / event log, not this line.
                entry["reason"] = "shed:admission"
            print(json.dumps(entry))
            continue
        served += 1
        print(json.dumps({"query": i, "shed": False, "result_count": len(found)}))
        if args.results:
            for obj in found:
                print(
                    json.dumps(
                        {"oid": obj.oid, "point": list(obj.point), "doc": sorted(obj.doc)}
                    )
                )
    stats = front.stats()
    print(
        f"# {len(queries)} quer{'y' if len(queries) == 1 else 'ies'}, "
        f"{served} served, {stats['shed']} shed, "
        f"{engine.counter.total} lifetime cost units",
        file=sys.stderr,
    )
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Run the async-serving benchmark (S3) and print its tables."""
    from .bench.reporting import format_table
    from .bench.serving import run_serving_bench

    rows, mixed = run_serving_bench(quick=args.quick)
    suffix = " [quick]" if args.quick else ""
    print(
        format_table(
            rows,
            columns=[
                "shards", "budget", "queries", "seq_ms", "conc_ms",
                "speedup", "pruned_pct",
            ],
            title="S3: sequential vs concurrent fan-out (wall-clock)" + suffix,
        )
    )
    print()
    print(
        format_table(
            [mixed],
            columns=[
                "readers", "writes", "reads", "epochs", "live_objects",
                "elapsed_ms", "violations",
            ],
            title="S3: mixed read/write churn under snapshot isolation" + suffix,
        )
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    print(engine.export_stats_json())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print a saved engine's metrics registry as OpenMetrics text."""
    from .telemetry import render_openmetrics

    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    sys.stdout.write(render_openmetrics(engine.metrics, namespace=args.namespace))
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Replay a workload with an event log attached; print events as JSONL."""
    from .telemetry import EventLog

    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    queries = load_jsonl_queries(args.queries)
    events = EventLog(capacity=args.capacity)
    engine.attach_events(events)
    engine.batch(queries, budget=args.budget)
    text = events.export_jsonl(kind=args.kind)
    if text:
        print(text)
    stats = events.stats()
    print(
        f"# {stats['emitted']} event(s) emitted, {stats['retained']} retained, "
        f"{stats['dropped']} dropped",
        file=sys.stderr,
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Quantile summaries + planner statistics for a saved engine."""
    from .telemetry import quantile_rows

    engine = load_index(args.index, expected_class=ENGINE_KINDS)
    histogram_rows = quantile_rows(engine.metrics)
    planner = engine.planner_stats()
    if args.format == "json":
        print(
            json.dumps(
                {"histograms": histogram_rows, "planner": planner}, sort_keys=True
            )
        )
        return 0
    from .bench.reporting import format_table

    print(
        format_table(
            histogram_rows,
            columns=["name", "count", "sum", "p50", "p90", "p99"],
            title="histogram quantiles",
        )
    )
    planner_rows = [
        {
            "strategy": cell["strategy"],
            "backend": cell["backend"],
            "queries": cell["queries"],
            "cost_mean": round(cell["cost"]["mean"], 2),
            "cost_max": cell["cost"]["max"],
            "results_mean": round(cell["result_count"]["mean"], 2),
        }
        for cell in planner["strategies"]
    ]
    print()
    print(
        format_table(
            planner_rows,
            columns=[
                "strategy", "backend", "queries",
                "cost_mean", "cost_max", "results_mean",
            ],
            title="planner stats (per strategy x backend)",
        )
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    counter = CostCounter()
    if args.rect is not None:
        dim = len(args.rect) // 2
        if isinstance(index, RrKwIndex):
            found_rects = index.query(
                args.rect[:dim], args.rect[dim:], args.keywords, counter=counter
            )
            for rect_obj in found_rects:
                print(
                    json.dumps(
                        {
                            "oid": rect_obj.oid,
                            "lo": list(rect_obj.lo),
                            "hi": list(rect_obj.hi),
                            "doc": sorted(rect_obj.doc),
                        }
                    )
                )
            print(
                f"# {len(found_rects)} match(es), {counter.total} cost units",
                file=sys.stderr,
            )
            return 0
        from .core.dynamize import DynamicKeywordsOnly, DynamicMultiKOrp, DynamicOrpKw

        rect_kinds = (OrpKwIndex, DynamicOrpKw, DynamicKeywordsOnly, DynamicMultiKOrp)
        if not isinstance(index, rect_kinds):
            raise ValidationError(
                "--rect queries need an index built with --kind orp or rr "
                "(or a rect-family --dynamic index)"
            )
        rect = Rect(args.rect[:dim], args.rect[dim:])
        found = index.query(rect, args.keywords, counter=counter)
    elif args.halfspace is not None:
        from .core.dynamize import DynamicLcKw

        if not isinstance(index, (LcKwIndex, DynamicLcKw)):
            raise ValidationError("--halfspace queries need an index built with --kind lc")
        from .geometry.halfspaces import HalfSpace

        *coeffs, bound = args.halfspace
        found = index.query([HalfSpace(coeffs, bound)], args.keywords, counter=counter)
    elif args.ball is not None:
        from .core.dynamize import DynamicSrpKw

        if not isinstance(index, (SrpKwIndex, DynamicSrpKw)):
            raise ValidationError("--ball queries need an index built with --kind srp")
        *center, radius = args.ball
        found = index.query(center, radius, args.keywords, counter=counter)
    else:
        raise ValidationError("supply one of --rect / --halfspace / --ball")
    _emit(found, counter)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Serve one query with span recording on; print the cost-span tree."""
    index = load_index(args.index)
    if isinstance(index, ENGINE_KINDS):
        index.tracing = True  # session-local; not saved back to the file
        index.query(args.rect, args.keywords, budget=args.budget)
        trace_dict = index.last_record.trace
    elif isinstance(index, OrpKwIndex):
        if len(args.rect) % 2 != 0:
            raise ValidationError(
                f"--rect needs an even coordinate count, got {len(args.rect)}"
            )
        dim = len(args.rect) // 2
        counter = CostCounter()
        tracer = Tracer("query", "cli")
        counter.tracer = tracer
        index.query(Rect(args.rect[:dim], args.rect[dim:]), args.keywords, counter)
        trace_dict = tracer.finish().to_dict()
    else:
        raise ValidationError(
            "trace needs an index built with --kind orp, engine, or sharded"
        )
    if args.format == "json":
        print(json.dumps(trace_dict, sort_keys=True))
    else:
        print(TraceSpan.from_dict(trace_dict).render())
    return 0


def cmd_nearest(args: argparse.Namespace) -> int:
    index = load_index(args.index, expected_class=LinfNnIndex)
    counter = CostCounter()
    found = index.query(args.point, args.t, args.keywords, counter=counter)
    _emit(found, counter)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    info = {
        "class": type(index).__name__,
        "k": getattr(index, "k", getattr(index, "max_k", None)),
        "dim": getattr(index, "dim", None),
        "input_size": getattr(index, "input_size", None),
        "space_units": index.space_units,
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint (the repo's AST auditor) — delegates to repro.analysis."""
    from .analysis.runner import main as lint_main

    return lint_main(args.lint_args)


def cmd_audit(args: argparse.Namespace) -> int:
    """The scaling-law audit: run sweeps, gate against baselines, scorecard."""
    from . import audit

    # Row ids are case-normalized so `--rows churn` and `--rows t1.1` work.
    rows = (
        [row.upper() for row in args.rows]
        if args.rows
        else list(audit.AUDITED_ROWS)
    )
    for row in rows:
        audit.require_row(row)  # fail fast on typos before any sweep runs
    mode = "quick" if args.quick else "full"
    seed = args.seed if args.seed is not None else audit.DEFAULT_SEED
    log = lambda line: print(f"# {line}", file=sys.stderr)  # noqa: E731

    if args.audit_command == "run":
        reports = audit.run_rows(rows, mode=mode, seed=seed, log=log)
        paths = audit.write_reports(reports, args.dir)
        for path in paths:
            log(f"wrote {path}")
        print(audit.render_scorecard(reports))
        return 0

    if args.audit_command == "gate":
        result = audit.run_gate(
            args.dir,
            rows,
            mode=mode,
            seed=seed,
            export_dir=args.export,
            log=log,
        )
        print(audit.render_gate(result))
        return result.exit_code

    # scorecard: committed baselines by default, --fresh to re-run sweeps
    if args.fresh:
        reports = audit.run_rows(rows, mode=mode, seed=seed, log=log)
    else:
        baselines = audit.load_baselines(args.dir, rows)
        missing = sorted(row for row in rows if baselines[row] is None)
        if missing:
            raise ValidationError(
                f"no committed baseline for {', '.join(missing)} in {args.dir} "
                "— run `audit run` first or pass --fresh"
            )
        reports = {row: baselines[row] for row in rows}
    print(audit.render_scorecard(reports))
    return 0


def cmd_demo(_args: argparse.Namespace) -> int:
    """Tiny in-memory end-to-end demo (no files needed)."""
    dataset = Dataset.from_points(
        [(120.0, 8.5), (180.0, 9.1), (90.0, 7.0), (150.0, 8.1)],
        [{1, 2, 3}, {1, 3}, {1, 2}, {1, 2, 3}],
    )
    index = OrpKwIndex(dataset, k=2)
    counter = CostCounter()
    found = index.query(Rect((100.0, 8.0), (200.0, 10.0)), [1, 3], counter=counter)
    _emit(found, counter)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="keyword search with structured constraints"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a JSONL dataset")
    p_build.add_argument("dataset", help="JSONL file of {point, doc} records")
    p_build.add_argument("index", help="output index file")
    p_build.add_argument(
        "--kind",
        choices=sorted(set(INDEX_KINDS) | {"keywords", "multi"}),
        default="orp",
    )
    p_build.add_argument("--k", type=int, default=2, help="query keywords per query")
    p_build.add_argument(
        "--dynamic",
        action="store_true",
        help="build a Bentley-Saxe dynamized index (insert/delete-capable; "
        "kinds orp, lc, srp, keywords, multi)",
    )
    p_build.add_argument(
        "--budget",
        type=int,
        default=None,
        help="default per-query cost budget (engine/sharded kinds only)",
    )
    p_build.add_argument(
        "--shards",
        type=int,
        default=4,
        help="spatial shard count (sharded kind only)",
    )
    p_build.add_argument(
        "--backend",
        choices=BACKENDS,
        default="cost_model",
        help="execution backend (engine/sharded kinds only)",
    )
    p_build.set_defaults(func=cmd_build)

    p_batch = sub.add_parser(
        "batch", help="serve a JSONL query workload through a saved engine"
    )
    p_batch.add_argument("index", help="index file built with --kind engine")
    p_batch.add_argument(
        "--queries", required=True, help="JSONL file of {rect, keywords} queries"
    )
    p_batch.add_argument(
        "--budget", type=int, default=None, help="per-query cost budget override"
    )
    p_batch.add_argument(
        "--results", action="store_true", help="print matches after each trace"
    )
    p_batch.add_argument(
        "--save",
        action="store_true",
        help="write the engine (updated cache/stats) back to the index file",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="serve a JSONL workload concurrently (async fan-out + admission)",
    )
    p_serve.add_argument("index", help="index file built with --kind engine/sharded")
    p_serve.add_argument(
        "--queries", required=True, help="JSONL file of {rect, keywords} queries"
    )
    p_serve.add_argument(
        "--budget", type=int, default=None, help="per-query cost budget"
    )
    p_serve.add_argument(
        "--max-inflight-cost",
        type=int,
        default=None,
        help="admission-control bound on summed in-flight budgets (shed above)",
    )
    p_serve.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="worker-pool size (default: one per shard)",
    )
    p_serve.add_argument(
        "--results", action="store_true", help="print matches after each query line"
    )
    p_serve.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="write metrics.prom / events.jsonl / traces.jsonl / stats.json "
        "here after the workload drains",
    )
    p_serve.add_argument(
        "--slo-p99-cost",
        type=int,
        default=None,
        help="SLO target: windowed p99 query cost (arms the burn-rate monitor)",
    )
    p_serve.add_argument(
        "--slo-shed-rate",
        type=float,
        default=None,
        help="SLO target: max fraction of window queries shed",
    )
    p_serve.add_argument(
        "--slo-exhausted-rate",
        type=float,
        default=None,
        help="SLO target: max fraction of window queries exhausting their budget",
    )
    p_serve.add_argument(
        "--slo-window",
        type=int,
        default=128,
        help="sliding-window size (queries) for the SLO monitor",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_bench_serve = sub.add_parser(
        "bench-serve",
        help="run the async-serving benchmark (fan-out wall-clock, mixed churn)",
    )
    p_bench_serve.add_argument(
        "--quick", action="store_true", help="tiny CI-smoke configuration"
    )
    p_bench_serve.set_defaults(func=cmd_bench_serve)

    p_stats = sub.add_parser("stats", help="print a saved engine's statistics")
    p_stats.add_argument("index", help="index file built with --kind engine")
    p_stats.set_defaults(func=cmd_stats)

    p_metrics = sub.add_parser(
        "metrics", help="print a saved engine's metrics as OpenMetrics text"
    )
    p_metrics.add_argument("index", help="index file built with --kind engine/sharded")
    p_metrics.add_argument(
        "--namespace", default="repro", help="metric-name prefix (default: repro)"
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_events = sub.add_parser(
        "events",
        help="replay a workload with a structured event log; print JSONL events",
    )
    p_events.add_argument("index", help="index file built with --kind engine/sharded")
    p_events.add_argument(
        "--queries", required=True, help="JSONL file of {rect, keywords} queries"
    )
    p_events.add_argument(
        "--budget", type=int, default=None, help="per-query cost budget override"
    )
    p_events.add_argument(
        "--kind", default=None, help="only print events of this kind"
    )
    p_events.add_argument(
        "--capacity", type=int, default=4096, help="event ring-buffer capacity"
    )
    p_events.set_defaults(func=cmd_events)

    p_top = sub.add_parser(
        "top",
        help="histogram quantiles (p50/p90/p99) + per-strategy planner stats",
    )
    p_top.add_argument("index", help="index file built with --kind engine/sharded")
    p_top.add_argument("--format", choices=("table", "json"), default="table")
    p_top.set_defaults(func=cmd_top)

    p_query = sub.add_parser("query", help="run a reporting query")
    p_query.add_argument("index")
    p_query.add_argument("--keywords", type=int, nargs="+", required=True)
    p_query.add_argument(
        "--rect", type=float, nargs="+", help="lo coords then hi coords"
    )
    p_query.add_argument(
        "--halfspace", type=float, nargs="+", help="coefficients then bound"
    )
    p_query.add_argument(
        "--ball", type=float, nargs="+", help="center coords then radius"
    )
    p_query.set_defaults(func=cmd_query)

    p_trace = sub.add_parser(
        "trace", help="serve one query and print its cost-span tree"
    )
    p_trace.add_argument("index", help="index file (orp, engine, or sharded kind)")
    p_trace.add_argument(
        "--rect", type=float, nargs="+", required=True,
        help="lo coords then hi coords",
    )
    p_trace.add_argument("--keywords", type=int, nargs="+", required=True)
    p_trace.add_argument(
        "--budget", type=int, default=None,
        help="per-query cost budget (engine/sharded kinds only)",
    )
    p_trace.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p_trace.set_defaults(func=cmd_trace)

    p_nearest = sub.add_parser("nearest", help="t nearest neighbours (L∞)")
    p_nearest.add_argument("index")
    p_nearest.add_argument("--point", type=float, nargs="+", required=True)
    p_nearest.add_argument("--t", type=int, default=1)
    p_nearest.add_argument("--keywords", type=int, nargs="+", required=True)
    p_nearest.set_defaults(func=cmd_nearest)

    p_info = sub.add_parser("info", help="describe a saved index")
    p_info.add_argument("index")
    p_info.set_defaults(func=cmd_info)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the AST cost-accounting auditor (rules R1-R6)",
        description=(
            "Arguments are forwarded verbatim to `python -m repro.analysis` "
            "(paths, --format, --baseline, --write-baseline, --rules, ...)."
        ),
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.analysis",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_audit = sub.add_parser(
        "audit",
        help="scaling-law audit: sweeps, exponent fits, CI regression gate",
        description=(
            "`run` executes the seeded Table-1 sweeps, writes BENCH_<row>.json "
            "baselines, and prints the scorecard; `gate` reruns the sweeps and "
            "fails (exit 1) when a fitted exponent drifts outside its tolerance "
            "band or a structural probe regresses (exit 2: baselines missing); "
            "`scorecard` renders the committed baselines without re-running."
        ),
    )
    audit_sub = p_audit.add_subparsers(dest="audit_command", required=True)
    for name, helptext in (
        ("run", "run sweeps, write BENCH baselines, print the scorecard"),
        ("gate", "compare a fresh run against committed BENCH baselines"),
        ("scorecard", "render the Table-1 scorecard"),
    ):
        p_sub = audit_sub.add_parser(name, help=helptext)
        p_sub.add_argument(
            "--rows", nargs="+", default=None, metavar="ROW",
            help="Table-1 rows to audit (default: all audited rows)",
        )
        p_sub.add_argument(
            "--quick", action="store_true",
            help="smaller sweeps + fewer bootstrap resamples (CI-friendly)",
        )
        p_sub.add_argument(
            "--dir", default=".",
            help="directory holding BENCH_<row>.json files (default: .)",
        )
        p_sub.add_argument(
            "--seed", type=int, default=None,
            help="base RNG seed (default: the audit DEFAULT_SEED)",
        )
        if name == "gate":
            p_sub.add_argument(
                "--export", default=None, metavar="DIR",
                help="also write the fresh reports here (CI artifact)",
            )
        if name == "scorecard":
            p_sub.add_argument(
                "--fresh", action="store_true",
                help="re-run sweeps instead of reading committed baselines",
            )
        p_sub.set_defaults(func=cmd_audit)

    p_demo = sub.add_parser("demo", help="run a tiny in-memory demo")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

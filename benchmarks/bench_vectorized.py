"""Experiment S4 — vectorized numpy backend vs the scalar cost-model path.

Three halves, one per strategy the fast path serves, each at a sweep of
corpus sizes (measured per N: wall-clock for the full query batch on each
backend and the speedup ratio), and one table of the kd-tree walk alone:

* **keywords-only** — an intersection-heavy workload (the three most
  frequent Zipf keywords of five, whose posting lists cover a large
  fraction of the corpus, plus a selective rectangle) served by the scalar
  :class:`repro.core.baselines.KeywordsOnlyIndex` and by
  :meth:`repro.fast.VectorizedBackend.query_rect`;
* **structured-only** — large squares (a fifth to two fifths of the unit
  square's side) over one or two frequent keywords, served by the scalar
  :class:`repro.core.baselines.StructuredOnlyIndex` and by
  :meth:`repro.fast.VectorizedBackend.query_structured` over the same
  kd-tree.  Both walk the tree's nodes in Python; the fast path reports,
  tests and keyword-filters the points in numpy passes;
* **fused** — k = 2 mid-frequency keyword pairs (frequency ranks 4–16)
  over squares of side 0.2–0.35, the fused-lowout serving regime, served by
  the scalar :meth:`repro.core.orp_kw.OrpKwIndex.query` and by
  :meth:`repro.fast.VectorizedBackend.query_fused` over the same index.
  Both walk the transform's nodes in Python; the fast path tests the
  scanned pivot sets and materialized lists in numpy passes.  A second
  table gives the mean time per query by scalar cost band, the input a
  per-strategy ``auto`` rule needs;
* **kd-tree walk** — ``fast.arrays.kd_range`` over its flat node table
  against the walk it replaced, which called ``Rect.intersects`` and
  ``Rect.covers`` on each node (:func:`_node_walk_kd_range`, kept here as
  this table's baseline), on squares of five sides.

Two claims under test:

* **oracle equivalence** — the vectorized path returns identical object-id
  lists (asserted on every query of every sweep, and the two walks return
  identical positions; the charged cost-model units are pinned separately
  by ``tests/fast/test_backend_oracle.py``);
* **throughput** — at the largest corpus size, batched numpy execution
  wins at least 10x wall-clock on keywords-only, at least 3x on
  structured-only, whose node walk stays in Python, and at least 2x on
  fused, whose descent stays in Python; and the flat-table walk is no
  slower than the node walk at any side (asserted in full mode; the
  committed ``benchmarks/results/s4_vectorized.txt`` records the measured
  numbers).

Wall-clock appears here *by design*: this is the one benchmark whose claim
is about real time, not cost units — the cost-model charges of the two
backends are identical by construction, so only the clock can tell them
apart.

``python benchmarks/bench_vectorized.py --quick`` runs a tiny configuration
of every half (CI smoke: no results file is written); the committed
results come from the full run.
"""

import random
import sys
import time

import numpy as np

from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.core.orp_kw import OrpKwIndex
from repro.costmodel import CostCounter
from repro.fast import VectorizedBackend
from repro.fast.arrays import KdTable, kd_range
from repro.geometry.rectangles import Rect
from repro.trace import span_for

from common import record, standard_dataset
from repro.bench.reporting import format_table

SWEEP_OBJECTS = (2000, 8000, 32000, 64000)
FUSED_SWEEP_OBJECTS = (4000, 16000, 64000)
WALK_SWEEP_OBJECTS = (16000, 64000)
#: Square sides of the kd-tree walk table, from a few points to most of the
#: corpus.
WALK_SIDES = (0.01, 0.05, 0.2, 0.35, 0.6)
NUM_QUERIES = 40
#: Required speedups at the largest N of the full sweeps.
HEADLINE_SPEEDUP = 10.0
HEADLINE_STRUCTURED_SPEEDUP = 3.0
HEADLINE_FUSED_SPEEDUP = 2.0
#: Lower edges of the fused half's scalar cost bands (cost units).
COST_BANDS = (0, 80, 160, 320, 640, 1280, 2560)
#: Each per-query time is the best of this many runs.
REPEATS = 3


def _common_keywords(dataset, count=5):
    frequencies = {}
    for obj in dataset.objects:
        for word in obj.doc:
            frequencies[word] = frequencies.get(word, 0) + 1
    return sorted(frequencies, key=frequencies.get, reverse=True)[:count]


def _workload(dataset, num_queries, seed=29):
    """Intersection-heavy queries: frequent keyword pairs, varied rects."""
    rng = random.Random(seed)
    common = _common_keywords(dataset)
    queries = []
    for _ in range(num_queries):
        # Three frequent keywords -> long posting lists with per-candidate
        # membership probes dominating the scalar path; a selective rect
        # keeps the reported set (materialized object-by-object on both
        # backends) small relative to the intersection work.
        words = rng.sample(common, 3)
        side = rng.uniform(0.05, 0.25)
        a = rng.uniform(0, 1 - side)
        c = rng.uniform(0, 1 - side)
        queries.append((Rect((a, c), (a + side, c + side)), words))
    return queries


def _structured_workload(dataset, num_queries, seed=31):
    """Reporting-heavy queries: large squares, one or two frequent keywords."""
    rng = random.Random(seed)
    common = _common_keywords(dataset)
    queries = []
    for _ in range(num_queries):
        words = rng.sample(common, rng.randint(1, 2))
        side = rng.uniform(0.2, 0.4)
        a = rng.uniform(0, 1 - side)
        c = rng.uniform(0, 1 - side)
        queries.append((Rect((a, c), (a + side, c + side)), words))
    return queries


def _fused_workload(dataset, num_queries, seed=37):
    """fused-lowout's regime: k = 2 keywords of frequency ranks 4-16,
    squares of side 0.2-0.35."""
    rng = random.Random(seed)
    mid = _common_keywords(dataset, count=16)[3:]
    queries = []
    for _ in range(num_queries):
        words = sorted(rng.sample(mid, 2))
        side = rng.uniform(0.2, 0.35)
        a = rng.uniform(0, 1 - side)
        c = rng.uniform(0, 1 - side)
        queries.append((Rect((a, c), (a + side, c + side)), words))
    return queries


def _keywords_pair(dataset):
    """(scalar query, vectorized query, workload) for the keywords-only half;
    the numpy arrays and the kd-tree whose points the fast path tests are
    built outside the timed region."""
    return (
        KeywordsOnlyIndex(dataset).query_rect,
        VectorizedBackend(dataset, StructuredOnlyIndex(dataset).tree).query_rect,
        _workload,
    )


def _structured_pair(dataset):
    """The same for the structured-only half, over one kd-tree."""
    scalar = StructuredOnlyIndex(dataset)
    return (
        scalar.query_rect,
        VectorizedBackend(dataset, scalar.tree).query_structured,
        _structured_workload,
    )


def _fused_pair(dataset):
    """The same for the fused half, over one k = 2 Theorem-1 index."""
    index = OrpKwIndex(dataset, k=2)
    backend = VectorizedBackend(dataset, StructuredOnlyIndex(dataset).tree, [index])
    return index.query, backend.query_fused, _fused_workload


def _timed_batch(query, workload):
    """Serve the whole workload; return (seconds, per-query oid lists)."""
    start = time.perf_counter()
    answers = [[o.oid for o in query(rect, words)] for rect, words in workload]
    return time.perf_counter() - start, answers


def _sweep_rows(pair=_keywords_pair, sweep_objects=SWEEP_OBJECTS, num_queries=NUM_QUERIES):
    rows = []
    for num_objects in sweep_objects:
        dataset = standard_dataset(num_objects)
        scalar, vectorized, make_workload = pair(dataset)
        workload = make_workload(dataset, num_queries)
        scalar_s, scalar_answers = _timed_batch(scalar, workload)
        vector_s, vector_answers = _timed_batch(vectorized, workload)
        # Oracle equivalence on every query of the sweep.
        assert vector_answers == scalar_answers, num_objects
        rows.append(
            {
                "objects": num_objects,
                "queries": num_queries,
                "scalar_ms": round(1000.0 * scalar_s, 2),
                "vectorized_ms": round(1000.0 * vector_s, 2),
                "speedup": round(scalar_s / vector_s, 1),
            }
        )
    return rows


def _best_time(call, repeats=REPEATS):
    """The fastest of ``repeats`` runs of ``call()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _band(units):
    return max(edge for edge in COST_BANDS if edge <= units)


def _fused_band_rows(sweep_objects=FUSED_SWEEP_OBJECTS, num_queries=NUM_QUERIES):
    """Per N and scalar cost band: the fused queries in it, their mean
    time on each path (best of :data:`REPEATS` runs each) and how many the
    vectorized path won; ids asserted equal on every query."""
    rows = []
    for num_objects in sweep_objects:
        dataset = standard_dataset(num_objects)
        scalar, vectorized, make_workload = _fused_pair(dataset)
        bands = {}
        for rect, words in make_workload(dataset, num_queries):
            counter = CostCounter()
            want = [o.oid for o in scalar(rect, words, counter)]
            assert [o.oid for o in vectorized(rect, words)] == want, (num_objects, rect, words)
            scalar_s = _best_time(lambda: scalar(rect, words))
            vector_s = _best_time(lambda: vectorized(rect, words))
            bands.setdefault(_band(counter.total), []).append((scalar_s, vector_s))
        for edge in sorted(bands):
            times = bands[edge]
            rows.append(
                {
                    "objects": num_objects,
                    "cost_units": f">= {edge}",
                    "queries": len(times),
                    "scalar_us": round(1e6 * sum(t[0] for t in times) / len(times), 1),
                    "vectorized_us": round(1e6 * sum(t[1] for t in times) / len(times), 1),
                    "won": sum(1 for t in times if t[1] < t[0]),
                }
            )
    return rows


def _node_walk_kd_range(tree, rect, counter):
    """The kd-tree walk ``kd_range`` ran before its flat node table, kept as
    the walk table's baseline: the same order, charges and result, with
    ``Rect.intersects`` and ``Rect.covers`` called on each node's cell."""
    rect.require_dim(tree.dim)
    remaining = counter.remaining
    limit = 3 * len(tree.points) if remaining is None else remaining + 1
    used = examined = 0
    spans = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        used += 1
        if used >= limit:
            break
        if not rect.intersects(node.cell):
            continue
        leaf = not node.children
        if leaf or rect.covers(node.cell):
            size = node.end - node.start
            if used + size >= limit:
                examined += limit - used
                used = limit
                break
            spans.append((node.start - examined, size, leaf))
            used += size
            examined += size
            continue
        stack.extend(node.children)
    counter.charge("nodes_visited", used - examined)
    if examined:
        counter.charge("objects_examined", examined)
    if not spans:
        return np.empty(0, dtype=np.int64)
    shift, sizes, leaves = np.array(spans, dtype=np.int64).T
    positions = tree.perm[np.arange(examined) + shift.repeat(sizes)]
    tested = leaves.astype(bool).repeat(sizes)
    keep = ~tested
    keep[tested] = rect.contains_points(tree.points[positions[tested]])
    return positions[keep]


def _walked(walk, source, rect, counter):
    """One walk's positions, its charges in a ``kd-walk`` span as the
    backend's are."""
    with span_for(counter, "kd-walk", "fast"):
        return walk(source, rect, counter)


def _walk_rows(sweep_objects=WALK_SWEEP_OBJECTS, sides=WALK_SIDES, num_queries=NUM_QUERIES):
    """Per N and square side: the node walk against the flat-table walk,
    each the best of :data:`REPEATS` runs of the whole batch; positions
    and charges asserted equal on every query."""
    rows = []
    for num_objects in sweep_objects:
        tree = StructuredOnlyIndex(standard_dataset(num_objects)).tree
        table = KdTable(tree)
        rng = random.Random(41)
        for side in sides:
            rects = []
            for _ in range(num_queries):
                a, c = rng.uniform(0, 1 - side), rng.uniform(0, 1 - side)
                rects.append(Rect((a, c), (a + side, c + side)))
            for rect in rects:
                old, new = CostCounter(), CostCounter()
                want = _walked(_node_walk_kd_range, tree, rect, old).tolist()
                assert _walked(kd_range, table, rect, new).tolist() == want, (num_objects, rect)
                assert old.snapshot() == new.snapshot(), (num_objects, rect)
            node_s = _best_time(
                lambda: [_walked(_node_walk_kd_range, tree, r, CostCounter()) for r in rects]
            )
            table_s = _best_time(
                lambda: [_walked(kd_range, table, r, CostCounter()) for r in rects]
            )
            rows.append(
                {
                    "objects": num_objects,
                    "side": side,
                    "queries": num_queries,
                    "node_walk_ms": round(1000.0 * node_s, 2),
                    "table_walk_ms": round(1000.0 * table_s, 2),
                    "speedup": round(node_s / table_s, 2),
                }
            )
    return rows


_COLUMNS = ["objects", "queries", "scalar_ms", "vectorized_ms", "speedup"]
_BAND_COLUMNS = ["objects", "cost_units", "queries", "scalar_us", "vectorized_us", "won"]
_WALK_COLUMNS = ["objects", "side", "queries", "node_walk_ms", "table_walk_ms", "speedup"]
_TITLE = (
    "S4: vectorized backend — wall-clock vs the scalar path "
    "(intersection-heavy Zipf workload)"
)
_STRUCTURED_TITLE = (
    "S4: vectorized structured-only — wall-clock vs the scalar path "
    "(large squares, frequent keywords)"
)


_FUSED_TITLE = (
    "S4: vectorized fused — wall-clock vs the scalar path "
    "(k = 2 mid-frequency pairs, squares of side 0.2-0.35)"
)
_BAND_TITLE = "S4: vectorized fused — mean time per query by scalar cost band"
_WALK_TITLE = "S4: kd-tree walk — the flat node table vs the node walk it replaced"


def _tables(quick: bool) -> str:
    """Every half's tables; ``quick`` runs tiny corpora and few queries."""
    sizes = {
        "keywords": (500, 1500) if quick else SWEEP_OBJECTS,
        "fused": (1000, 3000) if quick else FUSED_SWEEP_OBJECTS,
        "walk": (3000,) if quick else WALK_SWEEP_OBJECTS,
    }
    queries = 8 if quick else NUM_QUERIES
    tag = " [quick]" if quick else ""
    rows = _sweep_rows(_keywords_pair, sizes["keywords"], queries)
    structured_rows = _sweep_rows(_structured_pair, sizes["keywords"], queries)
    fused_rows = _sweep_rows(_fused_pair, sizes["fused"], queries)
    band_rows = _fused_band_rows(sizes["fused"], queries)
    walk_rows = _walk_rows(sizes["walk"], num_queries=queries)
    if not quick:
        # No floor in quick mode: tiny corpora sit in the fixed-overhead
        # regime the auto backend routes around.
        for table_rows, floor in (
            (rows, HEADLINE_SPEEDUP),
            (structured_rows, HEADLINE_STRUCTURED_SPEEDUP),
            (fused_rows, HEADLINE_FUSED_SPEEDUP),
        ):
            headline = table_rows[-1]["speedup"]
            assert headline >= floor, f"headline speedup {headline}x below the {floor}x floor"
        slower = [row for row in walk_rows if row["speedup"] < 1.0]
        assert not slower, f"the flat-table walk is slower at {slower}"
    return "\n\n".join(
        [
            format_table(rows, columns=_COLUMNS, title=_TITLE + tag),
            format_table(structured_rows, columns=_COLUMNS, title=_STRUCTURED_TITLE + tag),
            format_table(fused_rows, columns=_COLUMNS, title=_FUSED_TITLE + tag),
            format_table(band_rows, columns=_BAND_COLUMNS, title=_BAND_TITLE + tag),
            format_table(walk_rows, columns=_WALK_COLUMNS, title=_WALK_TITLE + tag),
        ]
    )


def run(quick: bool = False) -> None:
    if quick:
        # CI smoke: print only; the committed results file comes from the
        # full run.
        print()
        print(_tables(quick=True))
        return
    record("s4_vectorized", _tables(quick=False))


def _headline_fixture(pair=_keywords_pair, num_objects=8000):
    dataset = standard_dataset(num_objects)
    scalar, vectorized, make_workload = pair(dataset)
    return scalar, vectorized, make_workload(dataset, 10)


def test_scalar_headline(benchmark):
    """Wall-clock baseline: the scalar cost-model path."""
    scalar, _vectorized, workload = _headline_fixture()
    benchmark(lambda: _timed_batch(scalar, workload))


def test_vectorized_headline(benchmark):
    """Wall-clock headline: the numpy fast path on the same workload."""
    _scalar, vectorized, workload = _headline_fixture()
    benchmark(lambda: _timed_batch(vectorized, workload))


def test_structured_scalar_headline(benchmark):
    """Wall-clock baseline: scalar structured-only on large squares."""
    scalar, _vectorized, workload = _headline_fixture(_structured_pair)
    benchmark(lambda: _timed_batch(scalar, workload))


def test_structured_vectorized_headline(benchmark):
    """Wall-clock headline: the numpy structured-only path, same queries."""
    _scalar, vectorized, workload = _headline_fixture(_structured_pair)
    benchmark(lambda: _timed_batch(vectorized, workload))


def test_fused_scalar_headline(benchmark):
    """Wall-clock baseline: the scalar Theorem-1 descent, fused-lowout's
    regime."""
    scalar, _vectorized, workload = _headline_fixture(_fused_pair)
    benchmark(lambda: _timed_batch(scalar, workload))


def test_fused_vectorized_headline(benchmark):
    """Wall-clock headline: the numpy fused path, same queries."""
    _scalar, vectorized, workload = _headline_fixture(_fused_pair)
    benchmark(lambda: _timed_batch(vectorized, workload))


def test_backends_agree_in_bench_harness():
    """Spot check inside the bench harness: vectorized == scalar, every half."""
    for pair in (_keywords_pair, _structured_pair, _fused_pair):
        scalar, vectorized, workload = _headline_fixture(pair, num_objects=1000)
        _, want = _timed_batch(scalar, workload)
        _, got = _timed_batch(vectorized, workload)
        assert got == want


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])

"""Experiment S4 — vectorized numpy backend vs the scalar cost-model path.

Two halves, one per strategy the fast path serves, each at a sweep of
corpus sizes (measured per N: wall-clock for the full query batch on each
backend and the speedup ratio):

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
  tests and keyword-filters the points in numpy passes.

Two claims under test:

* **oracle equivalence** — the vectorized path returns identical object-id
  lists (asserted on every query of both sweeps; the charged cost-model
  units are pinned separately by ``tests/fast/test_backend_oracle.py``);
* **throughput** — at the largest corpus size, batched numpy execution
  wins at least 10x wall-clock on keywords-only and at least 3x on
  structured-only, whose node walk stays in Python (asserted in full mode;
  the committed ``benchmarks/results/s4_vectorized.txt`` records the
  measured numbers).

Wall-clock appears here *by design*: this is the one benchmark whose claim
is about real time, not cost units — the cost-model charges of the two
backends are identical by construction, so only the clock can tell them
apart.

``python benchmarks/bench_vectorized.py --quick`` runs a tiny configuration
of both halves (CI smoke: no results file is written); the committed
results come from the full run.
"""

import random
import sys
import time

from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.fast import VectorizedBackend
from repro.geometry.rectangles import Rect

from common import record, standard_dataset
from repro.bench.reporting import format_table

SWEEP_OBJECTS = (2000, 8000, 32000, 64000)
NUM_QUERIES = 40
#: Required speedups at the largest N of the full sweeps.
HEADLINE_SPEEDUP = 10.0
HEADLINE_STRUCTURED_SPEEDUP = 3.0


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


def _keywords_pair(dataset):
    """(scalar query, vectorized query, workload) for the keywords-only half;
    the numpy arrays are built outside the timed region."""
    return (
        KeywordsOnlyIndex(dataset).query_rect,
        VectorizedBackend(dataset).query_rect,
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


_COLUMNS = ["objects", "queries", "scalar_ms", "vectorized_ms", "speedup"]
_TITLE = (
    "S4: vectorized backend — wall-clock vs the scalar path "
    "(intersection-heavy Zipf workload)"
)
_STRUCTURED_TITLE = (
    "S4: vectorized structured-only — wall-clock vs the scalar path "
    "(large squares, frequent keywords)"
)


def run(quick: bool = False) -> None:
    if quick:
        # CI smoke: print only; the committed results file comes from the
        # full run.  No speedup floor — tiny corpora sit in the fixed-
        # overhead regime the auto backend routes around.
        for pair, title in ((_keywords_pair, _TITLE), (_structured_pair, _STRUCTURED_TITLE)):
            rows = _sweep_rows(pair, sweep_objects=(500, 1500), num_queries=8)
            print()
            print(format_table(rows, columns=_COLUMNS, title=title + " [quick]"))
        return
    rows = _sweep_rows()
    structured_rows = _sweep_rows(_structured_pair)
    for table_rows, floor in ((rows, HEADLINE_SPEEDUP), (structured_rows, HEADLINE_STRUCTURED_SPEEDUP)):
        headline = table_rows[-1]["speedup"]
        assert headline >= floor, f"headline speedup {headline}x below the {floor}x floor"
    record(
        "s4_vectorized",
        format_table(rows, columns=_COLUMNS, title=_TITLE)
        + "\n\n"
        + format_table(structured_rows, columns=_COLUMNS, title=_STRUCTURED_TITLE),
    )


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


def test_backends_agree_in_bench_harness():
    """Spot check inside the bench harness: vectorized == scalar, both halves."""
    for pair in (_keywords_pair, _structured_pair):
        scalar, vectorized, workload = _headline_fixture(pair, num_objects=1000)
        _, want = _timed_batch(scalar, workload)
        _, got = _timed_batch(vectorized, workload)
        assert got == want


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])

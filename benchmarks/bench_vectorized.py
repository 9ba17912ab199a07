"""Experiment S4 — vectorized numpy backend vs the scalar cost-model path.

An intersection-heavy workload (the regime the fast path targets: the two
most frequent Zipf keywords, whose posting lists cover a large fraction of
the corpus, plus a selective rectangle) is served by the scalar
:class:`repro.core.baselines.KeywordsOnlyIndex` and by the numpy
:class:`repro.fast.VectorizedBackend` at a sweep of corpus sizes.  Measured per N: wall-clock for the full query batch on
each backend and the speedup ratio.  Two claims under test:

* **oracle equivalence** — the vectorized path returns byte-identical
  object-id lists (asserted on every query of the sweep; the charged
  cost-model units are pinned separately by
  ``tests/fast/test_backend_oracle.py``);
* **throughput** — batched numpy execution wins at least 10x wall-clock at
  the largest corpus size (asserted in full mode; the committed
  ``benchmarks/results/s4_vectorized.txt`` records the measured numbers).

Wall-clock appears here *by design*: this is the one benchmark whose claim
is about real time, not cost units — the cost-model charges of the two
backends are identical by construction, so only the clock can tell them
apart.

``python benchmarks/bench_vectorized.py --quick`` runs a tiny configuration
(CI smoke: no results file is written); the committed results come from the
full run.
"""

import random
import sys
import time

from repro.core.baselines import KeywordsOnlyIndex
from repro.fast import VectorizedBackend
from repro.geometry.rectangles import Rect

from common import record, standard_dataset
from repro.bench.reporting import format_table

SWEEP_OBJECTS = (2000, 8000, 32000, 64000)
NUM_QUERIES = 40
#: Required speedup at the largest N of the full sweep.
HEADLINE_SPEEDUP = 10.0


def _workload(dataset, num_queries, seed=29):
    """Intersection-heavy queries: frequent keyword pairs, varied rects."""
    rng = random.Random(seed)
    frequencies = {}
    for obj in dataset.objects:
        for word in obj.doc:
            frequencies[word] = frequencies.get(word, 0) + 1
    common = sorted(frequencies, key=frequencies.get, reverse=True)[:5]
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


def _timed_batch(index, workload):
    """Serve the whole workload; return (seconds, per-query oid lists)."""
    start = time.perf_counter()
    answers = [
        [o.oid for o in index.query_rect(rect, words)] for rect, words in workload
    ]
    return time.perf_counter() - start, answers


def _sweep_rows(sweep_objects=SWEEP_OBJECTS, num_queries=NUM_QUERIES):
    rows = []
    for num_objects in sweep_objects:
        dataset = standard_dataset(num_objects)
        workload = _workload(dataset, num_queries)
        scalar = KeywordsOnlyIndex(dataset)
        vectorized = VectorizedBackend(dataset)  # arrays built outside the timed region
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


def run(quick: bool = False) -> None:
    if quick:
        rows = _sweep_rows(sweep_objects=(500, 1500), num_queries=8)
        # CI smoke: print only; the committed results file comes from the
        # full run.  No speedup floor — tiny corpora sit in the fixed-
        # overhead regime the auto backend routes around.
        print()
        print(format_table(rows, columns=_COLUMNS, title=_TITLE + " [quick]"))
        return
    rows = _sweep_rows()
    headline = rows[-1]["speedup"]
    assert headline >= HEADLINE_SPEEDUP, (
        f"headline speedup {headline}x below the {HEADLINE_SPEEDUP}x floor"
    )
    record("s4_vectorized", format_table(rows, columns=_COLUMNS, title=_TITLE))


def _headline_fixture(num_objects=8000):
    dataset = standard_dataset(num_objects)
    workload = _workload(dataset, 10)
    return KeywordsOnlyIndex(dataset), VectorizedBackend(dataset), workload


def test_scalar_headline(benchmark):
    """Wall-clock baseline: the scalar cost-model path."""
    scalar, _vectorized, workload = _headline_fixture()
    benchmark(lambda: _timed_batch(scalar, workload))


def test_vectorized_headline(benchmark):
    """Wall-clock headline: the numpy fast path on the same workload."""
    _scalar, vectorized, workload = _headline_fixture()
    benchmark(lambda: _timed_batch(vectorized, workload))


def test_backends_agree_in_bench_harness():
    """Spot check inside the bench harness: vectorized == scalar."""
    scalar, vectorized, workload = _headline_fixture(num_objects=1000)
    _, want = _timed_batch(scalar, workload)
    _, got = _timed_batch(vectorized, workload)
    assert got == want


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])

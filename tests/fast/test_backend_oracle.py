"""The vectorized backend's correctness oracle: the cost-model path.

Contract (DESIGN.md §12): for every query the vectorized numpy backend must
return the *same objects in the same order* as the scalar cost-model path
and charge the *same cost-model units in every category*.  The scalar path
is the oracle — these tests sweep both paths over the benchmark workload
families (zipf, planted, disjoint-pair — the Table-1 rows), seeds, budgets,
and sharded/unsharded serving, and demand byte-identical sorted object-id
sets plus identical cost snapshots wherever a single index runs both paths.
"""

import random
from collections import Counter

import pytest

from repro.analysis.runner import analyze_paths
from repro.core.baselines import KeywordsOnlyIndex, StructuredOnlyIndex
from repro.core.multi_k import MultiKOrpIndex
from repro.costmodel import CATEGORIES, CostCounter
from repro.dataset import Dataset, KeywordObject, make_objects
from repro.errors import BudgetExceeded, ValidationError
from repro.fast import ArrayStore, VectorizedBackend, validate_backend
from repro.geometry.rectangles import Rect
from repro.service import QueryEngine, ShardedQueryEngine
from repro.trace import Tracer
from repro.workloads.generators import (
    WorkloadConfig,
    disjoint_pair_dataset,
    planted_dataset,
    zipf_dataset,
)

#: The benchmark workload families the sweep runs over (Table-1 rows).
WORKLOADS = ("zipf", "planted", "disjoint")


def workload_dataset(name: str, seed: int, num_objects: int = 160) -> Dataset:
    if name == "zipf":
        config = WorkloadConfig(
            num_objects=num_objects, dim=2, vocabulary=16,
            doc_min=1, doc_max=4, zipf_s=1.0, seed=seed,
        )
        return zipf_dataset(config)
    if name == "planted":
        return planted_dataset(
            num_objects, 2, keywords=[1, 2], planted_fraction=0.1,
            seed=seed, vocabulary=16,
        )
    return disjoint_pair_dataset(num_objects, dim=2, seed=seed)


def random_rect(rng, span: float = 10.0) -> Rect:
    a, b = sorted([rng.uniform(-1, span + 1), rng.uniform(-1, span + 1)])
    c, d = sorted([rng.uniform(-1, span + 1), rng.uniform(-1, span + 1)])
    return Rect((a, c), (b, d))


def bounding_span(dataset: Dataset) -> float:
    return max(max(obj.point) for obj in dataset.objects)


def backend_for(dataset: Dataset) -> VectorizedBackend:
    """A vectorized backend over the kd-tree a StructuredOnlyIndex builds."""
    return VectorizedBackend(dataset, StructuredOnlyIndex(dataset).tree)


def out_of_oid_order(rng) -> Dataset:
    """Positions in dataset.objects are not object ids: sparse ids in
    shuffled order, as a shard's subset holds them."""
    return Dataset([
        KeywordObject(oid=oid, point=(rng.random(), rng.random()),
                      doc=frozenset(rng.sample(range(1, 5), 2)))
        for oid in rng.sample(range(10, 1000), 80)
    ])


def assert_same_answer_and_cost(scalar_pair, vectorized_pair, context=()):
    """Identical result order *and* identical per-category cost charges."""
    (scalar_result, scalar_counter) = scalar_pair
    (vector_result, vector_counter) = vectorized_pair
    assert [o.oid for o in scalar_result] == [o.oid for o in vector_result], context
    assert scalar_counter.snapshot() == vector_counter.snapshot(), (
        context, scalar_counter.snapshot(), vector_counter.snapshot()
    )


class TestValidateBackend:
    def test_known_backends(self):
        assert validate_backend("cost_model") == "cost_model"
        assert validate_backend("vectorized") == "vectorized"
        assert validate_backend("auto") == "auto"

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            validate_backend("gpu")


class TestKeywordsOnlyOracle:
    """KeywordsOnlyIndex against VectorizedBackend: the tightest oracle —
    order and cost must match."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", range(3))
    def test_rect_sweep(self, workload, seed):
        dataset = workload_dataset(workload, seed)
        span = bounding_span(dataset)
        rng = random.Random(seed + 100)
        scalar = KeywordsOnlyIndex(dataset)
        vectorized = backend_for(dataset)
        for _ in range(12):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            c1, c2 = CostCounter(), CostCounter()
            assert_same_answer_and_cost(
                (scalar.query_rect(rect, words, c1), c1),
                (vectorized.query_rect(rect, words, c2), c2),
                (workload, seed, rect, words),
            )

    def test_empty_result_query(self):
        dataset = workload_dataset("zipf", 0)
        rect = Rect((-5.0, -5.0), (-4.0, -4.0))  # outside every point
        c1, c2 = CostCounter(), CostCounter()
        assert_same_answer_and_cost(
            (KeywordsOnlyIndex(dataset).query_rect(rect, [1, 2], c1), c1),
            (backend_for(dataset).query_rect(rect, [1, 2], c2), c2),
        )

    def test_absent_keyword_short_circuits_identically(self):
        dataset = workload_dataset("zipf", 0)
        c1, c2 = CostCounter(), CostCounter()
        rect = Rect((0.0, 0.0), (10.0, 10.0))
        assert_same_answer_and_cost(
            (KeywordsOnlyIndex(dataset).query_rect(rect, [1, 9999], c1), c1),
            (backend_for(dataset).query_rect(rect, [1, 9999], c2), c2),
        )

    def test_single_object_dataset(self):
        dataset = Dataset(make_objects([(1.0, 1.0)], [[1, 2]]))
        for rect in (Rect((0.0, 0.0), (2.0, 2.0)), Rect((3.0, 3.0), (4.0, 4.0))):
            c1, c2 = CostCounter(), CostCounter()
            assert_same_answer_and_cost(
                (KeywordsOnlyIndex(dataset).query_rect(rect, [1, 2], c1), c1),
                (backend_for(dataset).query_rect(rect, [1, 2], c2), c2),
            )

    def test_duplicate_keywords(self):
        dataset = workload_dataset("zipf", 1)
        rect = Rect((0.0, 0.0), (10.0, 10.0))
        c1, c2 = CostCounter(), CostCounter()
        assert_same_answer_and_cost(
            (KeywordsOnlyIndex(dataset).query_rect(rect, [2, 2, 2], c1), c1),
            (backend_for(dataset).query_rect(rect, [2, 2, 2], c2), c2),
        )

    def test_zero_area_rect(self):
        # A degenerate Rect(p, p) is a closed point query; both paths use
        # closed lo <= x <= hi comparisons.
        dataset = Dataset(make_objects([(1.0, 2.0), (3.0, 4.0)], [[1, 2], [1, 2]]))
        rect = Rect((1.0, 2.0), (1.0, 2.0))
        c1, c2 = CostCounter(), CostCounter()
        scalar = KeywordsOnlyIndex(dataset).query_rect(rect, [1, 2], c1)
        vector = backend_for(dataset).query_rect(rect, [1, 2], c2)
        assert [o.oid for o in scalar] == [o.oid for o in vector] == [0]
        assert c1.snapshot() == c2.snapshot()

    def test_budget_raise_outcome_matches(self):
        # A budget raises on exactly the same queries, and a raised budget
        # records the same cost snapshot on both paths: a vectorized pass
        # that would cross it charges only the scalar loop's units up to the
        # crossing one (examines and probes in the intersection, comparisons
        # in the rect filter).
        dataset = workload_dataset("zipf", 2)
        rect = Rect((0.0, 0.0), (10.0, 10.0))
        for words in ([1], [1, 2], [2, 3, 5]):
            for budget in (1, 5, 30, 50, 100000):
                outcomes = []
                for index in (KeywordsOnlyIndex(dataset), backend_for(dataset)):
                    counter = CostCounter(budget=budget)
                    try:
                        index.query_rect(rect, words, counter)
                        outcomes.append(("served", counter.snapshot()))
                    except BudgetExceeded:
                        outcomes.append(("exceeded", counter.snapshot()))
                assert outcomes[0] == outcomes[1], (words, budget, outcomes)

    def test_edges_match_the_scalar_path(self):
        # A rectangle of another dimension: the scalar path's error, no charge.
        dataset = Dataset(make_objects([(1.0, 2.0), (3.0, 4.0)], [[1, 2], [1, 2]]))
        for index in (KeywordsOnlyIndex(dataset), backend_for(dataset)):
            for rect, match in (
                (Rect((0.0,), (3.0,)), "1-dimensional, data is 2-dimensional"),
                (Rect((0.0,) * 3, (3.0,) * 3), "3-dimensional, data is 2-dimensional"),
            ):
                counter = CostCounter()
                with pytest.raises(ValidationError, match=match):
                    index.query_rect(rect, [1, 2], counter)
                assert counter.snapshot() == {"total": 0}


def structured_pair(dataset: Dataset):
    """The scalar structured-only index and a vectorized backend reading
    its kd-tree."""
    scalar = StructuredOnlyIndex(dataset)
    return scalar, VectorizedBackend(dataset, scalar.tree)


def run_queries(queries, rect, words, budget=None, spent=0):
    """Each query's outcome on a fresh counter (pre-charged ``spent``
    comparisons): ("served", ids, snapshot) or ("exceeded", snapshot)."""
    outcomes = []
    for query in queries:
        counter = CostCounter(budget=budget)
        if spent:
            counter.charge("comparisons", spent)
        try:
            ids = [obj.oid for obj in query(rect, words, counter)]
            outcomes.append(("served", ids, counter.snapshot()))
        except BudgetExceeded:
            outcomes.append(("exceeded", counter.snapshot()))
    return outcomes


def run_both(scalar, vectorized, rect, words, budget=None, spent=0):
    """``run_queries`` for the structured-only pair."""
    queries = (scalar.query_rect, vectorized.query_structured)
    return run_queries(queries, rect, words, budget, spent)


def unit_labels(tree, rect, k, hits):
    """Where each unit the scalar path charges comes from, in charge order:
    a node visit, a point of a leaf span or of a covered span, or a keyword
    probe (``k`` per hit) — the places a budget can cross."""
    labels = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        labels.append("node")
        if not rect.intersects(node.cell):
            continue
        if node.is_leaf or rect.covers(node.cell):
            labels += ["leaf" if node.is_leaf else "covered"] * node.size
            continue
        stack.extend(node.children)
    return labels + ["filter"] * (k * hits)


def crossing_budgets(labels):
    """Budgets whose crossing unit falls on each kind of place: the first,
    a middle and the last unit of every kind, so crossings land on the
    first and last point of a span and mid-way through a hit's probes.
    Budget ``b`` crosses at unit ``b + 1``, the label at index ``b``."""
    budgets = set()
    for kind in ("node", "leaf", "covered", "filter"):
        at = [i for i, label in enumerate(labels) if label == kind]
        if at:
            budgets.update((at[0], at[len(at) // 2], at[-1], at[-1] + 1))
    return sorted(budgets)


def points_dataset(points, seed, vocabulary=6):
    rng = random.Random(seed)
    docs = [rng.sample(range(1, vocabulary + 1), rng.randint(1, 3)) for _ in points]
    return Dataset(make_objects(points, docs))


class TestStructuredOnlyOracle:
    """StructuredOnlyIndex.query_rect against VectorizedBackend.query_structured:
    the same ids in the same order and the same snapshot, served or raised,
    wherever a budget crosses."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", range(3))
    def test_rect_and_budget_sweep(self, workload, seed):
        dataset = workload_dataset(workload, seed)
        span = bounding_span(dataset)
        scalar, vectorized = structured_pair(dataset)
        rng = random.Random(seed + 900)
        crossed = Counter()
        for _ in range(10):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            served = run_both(scalar, vectorized, rect, words)
            assert served[0] == served[1], (workload, seed, rect, words)
            hits = len(scalar.tree.range_query(rect))
            labels = unit_labels(scalar.tree, rect, len(words), hits)
            assert len(labels) == served[0][2]["total"]
            for budget in crossing_budgets(labels) + [rng.randint(0, len(labels))]:
                outcomes = run_both(scalar, vectorized, rect, words, budget)
                assert outcomes[0] == outcomes[1], (workload, seed, rect, words, budget)
                if budget < len(labels):
                    # Raised at unit budget + 1; a hit's probes land whole.
                    crossing = budget + 1
                    if labels[budget] == "filter":
                        first, k = labels.index("filter"), len(words)
                        crossing = first + ((budget - first) // k + 1) * k
                    assert outcomes[0][0] == "exceeded"
                    assert outcomes[0][1]["total"] == crossing
                    crossed[labels[budget]] += 1
            # A counter that already spent part of its budget.
            outcomes = run_both(scalar, vectorized, rect, words, len(labels) // 2 + 3, spent=3)
            assert outcomes[0] == outcomes[1], (workload, seed, rect, words)
        assert {"node", "leaf", "covered", "filter"} <= set(crossed), crossed

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dimensions_and_repeated_coordinates(self, dim):
        rng = random.Random(dim)
        # Half the points on a 3-value grid: repeated coordinates push
        # medians onto cell boundaries, where the splits clamp.
        points = [
            tuple(rng.choice((0.0, 0.5, 1.0)) if i % 2 else rng.random() for _ in range(dim))
            for i in range(120)
        ]
        dataset = points_dataset(points, seed=dim)
        scalar, vectorized = structured_pair(dataset)
        grid_point = next(p for i, p in enumerate(points) if i % 2)
        rects = [
            Rect((-1e9,) * dim, (1e9,) * dim),  # covers the root cell
            Rect.full(dim),
            Rect((5.0,) * dim, (6.0,) * dim),  # misses every point
            Rect((1.2,) * dim, (1.5,) * dim),  # in the root cell, no point
            Rect(grid_point, grid_point),  # zero area, on repeated points
            Rect((0.5,) + (0.0,) * (dim - 1), (0.5,) + (1.0,) * (dim - 1)),  # zero width
        ]
        for _ in range(12):
            corners = [sorted((rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1))) for _ in range(dim)]
            rects.append(Rect([c[0] for c in corners], [c[1] for c in corners]))
        for rect in rects:
            for words in ([1], [2, 3], [1, 2, 3], [1, 9999]):
                served = run_both(scalar, vectorized, rect, words)
                assert served[0] == served[1], (dim, rect, words)
                hits = len(scalar.tree.range_query(rect))
                labels = unit_labels(scalar.tree, rect, len(words), hits)
                for budget in crossing_budgets(labels):
                    outcomes = run_both(scalar, vectorized, rect, words, budget)
                    assert outcomes[0] == outcomes[1], (dim, rect, words, budget)

    def test_objects_out_of_oid_order(self):
        # The same queries go to the keywords-only and fused pairs, and the
        # keywords-only pair also runs at every budget that crosses inside
        # its intersection: results come back in oid order, not position
        # order, and the crossing candidate is the scalar loop's.
        rng = random.Random(5)
        dataset = out_of_oid_order(rng)
        scalar, vectorized = structured_pair(dataset)
        keywords_only = (KeywordsOnlyIndex(dataset).query_rect, vectorized.query_rect)
        multi, fused = fused_pair(dataset, max_k=3)
        crossed = 0
        for _ in range(20):
            rect = random_rect(rng, 1.0)
            words = rng.sample(range(1, 5), rng.randint(1, 2))
            outcomes = run_both(scalar, vectorized, rect, words)
            assert outcomes[0] == outcomes[1], (rect, words)
            for more in (words, [1, 2], [4, 2, 3]):
                if len(more) > 1:
                    outcomes = run_fused_both(multi, fused, rect, more)
                    assert outcomes[0] == outcomes[1], (rect, more)
                served = run_queries(keywords_only, rect, more)
                assert served[0] == served[1], (rect, more)
                cost = served[0][2]
                inside = cost["objects_examined"] + cost.get("structure_probes", 0)
                for budget in range(inside):
                    outcomes = run_queries(keywords_only, rect, more, budget)
                    assert outcomes[0] == outcomes[1], (rect, more, budget)
                    assert outcomes[0][1]["total"] == budget + 1
                    crossed += 1
        assert crossed > 1000, crossed

    def test_edges_match_the_scalar_path(self):
        dataset = workload_dataset("zipf", 0)
        scalar, vectorized = structured_pair(dataset)
        # A rectangle of another dimension: range_query's error, no charge.
        for index_query in (scalar.query_rect, vectorized.query_structured):
            counter = CostCounter()
            with pytest.raises(ValidationError, match="1-dimensional, data is 2-dimensional"):
                index_query(Rect((0.0,), (1.0,)), [1], counter)
            assert counter.snapshot() == {"total": 0}
        # Empty keywords: refused after the walk, as the scalar filter does.
        rect = Rect((0.0, 0.0), (5.0, 5.0))
        snapshots = []
        for index_query in (scalar.query_rect, vectorized.query_structured):
            counter = CostCounter()
            with pytest.raises(ValidationError):
                index_query(rect, [], counter)
            snapshots.append(counter.snapshot())
        assert snapshots[0] == snapshots[1]
        # An empty corpus answers [] at zero cost; empty keywords and a
        # rectangle of another dimension still fail.
        empty = Dataset.empty(2)
        scalar, vectorized = structured_pair(empty)
        assert vectorized.tree is None
        for index_query in (scalar.query_rect, vectorized.query_structured):
            counter = CostCounter(budget=1)
            assert index_query(rect, [1, 2], counter) == []
            assert counter.snapshot() == {"total": 0}
            with pytest.raises(ValidationError):
                index_query(rect, [], counter)
            with pytest.raises(ValidationError, match="3-dimensional, data is 2-dimensional"):
                index_query(Rect((0.0,) * 3, (1.0,) * 3), [1], counter)
            assert counter.snapshot() == {"total": 0}

    def test_backend_without_the_tree_refuses_structured_queries(self):
        with pytest.raises(ValidationError, match="kd-tree"):
            VectorizedBackend(workload_dataset("zipf", 0), None)

    def test_traced_charges_match_untraced_and_sum_to_the_spans(self):
        dataset = workload_dataset("planted", 1)
        scalar, vectorized = structured_pair(dataset)
        rng = random.Random(31)
        span = bounding_span(dataset)
        for _ in range(10):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            for budget in (None, 40):
                plain = run_both(scalar, vectorized, rect, words, budget)[1]
                traced = CostCounter(budget=budget)
                traced.tracer = Tracer("query", "test")
                try:
                    ids = [o.oid for o in vectorized.query_structured(rect, words, traced)]
                    outcome = ("served", ids, traced.snapshot())
                except BudgetExceeded:
                    outcome = ("exceeded", traced.snapshot())
                tree = traced.tracer.finish().to_dict()
                assert outcome == plain, (rect, words, budget)
                assert _leaf_total(tree) == traced.total
                names = {child["name"] for child in tree.get("children") or []}
                assert names <= {"kd-walk", "keyword-filter"} and "kd-walk" in names

    def test_pickle_keeps_one_tree(self):
        import pickle

        dataset = workload_dataset("zipf", 0)
        scalar, vectorized = structured_pair(dataset)
        clone_scalar, clone = pickle.loads(pickle.dumps((scalar, vectorized)))
        assert clone.tree is clone_scalar.tree and clone.dataset is clone_scalar.dataset
        rect = Rect((0.0, 0.0), (6.0, 6.0))
        assert run_both(clone_scalar, clone, rect, [1, 2]) == run_both(
            scalar, vectorized, rect, [1, 2]
        )


#: The fused sweep adds a dense corpus (five keywords, three to five per
#: document), where several keywords stay large below the root, so the
#: k = 3 and k = 4 transforms descend too.
FUSED_WORKLOADS = WORKLOADS + ("dense",)


def fused_dataset(name: str, seed: int) -> Dataset:
    if name != "dense":
        return workload_dataset(name, seed, num_objects=240)
    rng = random.Random(seed + 1700)
    points = [(10 * rng.random(), 10 * rng.random()) for _ in range(400)]
    docs = [rng.sample(range(1, 6), rng.randint(3, 5)) for _ in points]
    return Dataset(make_objects(points, docs))


def fused_pair(dataset: Dataset, max_k: int = 4):
    """The scalar Theorem-1 indexes (one per k in 2..max_k, as a
    MultiKOrpIndex builds them) and a vectorized backend mirroring them."""
    multi = MultiKOrpIndex(dataset, max_k)
    indexes = [multi.fused_for(k) for k in range(2, max_k + 1)]
    return multi, VectorizedBackend(dataset, StructuredOnlyIndex(dataset).tree, indexes)


def run_fused_both(multi, backend, rect, words, budget=None, spent=0):
    """``run_queries`` for the fused strategy: ``OrpKwIndex.query`` for
    ``len(words)`` keywords against ``VectorizedBackend.query_fused``."""
    queries = (multi.fused_for(len(words)).query, backend.query_fused)
    return run_queries(queries, rect, words, budget, spent)


def fused_charges(index, rect, words):
    """The scalar fused path's charges, in order, as (place, units): a
    replay of ``KeywordTransform._visit_node`` over the index's nodes.  The
    rank-space conversion charges two comparisons per axis; a node visit
    one unit; a node with large keywords a ``k``-unit probe; an object of a
    scanned pivot set or materialized list one unit each; a child table
    one probe."""
    charges = [("comparisons", 2)] * index.dim
    rank_rect = index.rank_map.rect_to_rank(rect)
    key = tuple(sorted(words))

    def visit(node):
        charges.append(("node", 1))
        if node.children or node.materialized:
            charges.append(("k-probe", len(words)))
            small = next((w for w in words if w not in node.large), None)
            if small is not None:
                scanned = node.materialized.get(small, ())
                charges.extend([("materialized", 1)] * len(scanned))
                return
        charges.extend([("pivot", 1)] * len(node.pivot))
        for child, combos in zip(node.children, node.combos):
            charges.append(("child-probe", 1))
            if key in combos and rank_rect.intersects(child.cell):
                visit(child)

    visit(index.transform.root)
    return charges


def fused_crossings(charges):
    """Budgets, with the total each raises at, whose crossing unit falls on
    each kind of place: the first, a middle and the last comparison, node
    visit and child probe, the first and last unit of every k-probe, and
    the first, middle and last object of each scanned pivot set and
    materialized list.  Budget ``b`` crosses at unit ``b + 1``; a charge of
    several units crosses whole, so it raises at the charge's end."""
    spans, kinds, total = [], {}, 0
    budgets = {}
    for place, units in charges:
        if place in ("pivot", "materialized"):
            if spans and spans[-1][0] == place and spans[-1][2] == total:
                spans[-1][2] = total + 1
            else:
                spans.append([place, total, total + 1])
        elif place == "k-probe":
            budgets[total] = budgets[total + units - 1] = (place, total + units)
        else:
            kinds.setdefault(place, []).append((total, total + units))
        total += units
    for place, at_end in kinds.items():
        for at, end in (at_end[0], at_end[len(at_end) // 2], at_end[-1]):
            budgets[at] = (place, end)
    for place, start, stop in spans:
        for at in (start, (start + stop - 1) // 2, stop - 1):
            budgets[at] = (place, at + 1)
    return budgets


class TestFusedOracle:
    """OrpKwIndex.query against VectorizedBackend.query_fused: the same ids
    in the same order and the same snapshot, served or raised, wherever a
    budget crosses."""

    @pytest.mark.parametrize("workload", FUSED_WORKLOADS)
    @pytest.mark.parametrize("seed", range(3))
    def test_rect_and_budget_sweep(self, workload, seed):
        dataset = fused_dataset(workload, seed)
        span = bounding_span(dataset)
        multi, backend = fused_pair(dataset)
        # Up to 8 corpus keywords; the disjoint corpus has two, so absent
        # keywords fill its 3- and 4-keyword queries.
        words_pool = sorted({w for obj in dataset.objects for w in obj.doc})[:8]
        words_pool += [9996, 9997, 9998, 9999][: max(0, 4 - len(words_pool))]
        rng = random.Random(seed + 1300)
        crossed, deepest = Counter(), Counter()
        for _ in range(12):
            side = rng.uniform(0.1, 0.7) * span
            x, y = rng.uniform(-0.1, span - side), rng.uniform(-0.1, span - side)
            rect = Rect((x, y), (x + side, y + side))
            for k in (2, 3, 4):
                words = rng.sample(words_pool, k)
                served = run_fused_both(multi, backend, rect, words)
                assert served[0] == served[1], (workload, seed, rect, words)
                charges = fused_charges(multi.fused_for(k), rect, words)
                total = sum(units for _place, units in charges)
                assert total == served[0][2]["total"]
                visited = sum(1 for place, _units in charges if place == "node")
                deepest[k] = max(deepest[k], visited)
                budgets = fused_crossings(charges)
                for budget in sorted(budgets) + [rng.randint(0, total)]:
                    outcomes = run_fused_both(multi, backend, rect, words, budget)
                    assert outcomes[0] == outcomes[1], (workload, seed, rect, words, budget)
                    if budget in budgets:
                        place, raised = budgets[budget]
                        assert outcomes[0] == ("exceeded", outcomes[0][1])
                        assert outcomes[0][1]["total"] == raised
                        crossed[place] += 1
                # A counter that already spent part of its budget.
                outcomes = run_fused_both(multi, backend, rect, words, total // 2 + 3, spent=3)
                assert outcomes[0] == outcomes[1], (workload, seed, rect, words)
        places = {"comparisons", "node", "k-probe", "child-probe", "pivot", "materialized"}
        if workload == "disjoint":
            # Keywords 1 and 2 never share an object, so no query descends
            # to a node that scans a materialized list.
            places.discard("materialized")
        assert places <= set(crossed), crossed
        if workload == "dense":
            assert min(deepest.values()) > 1, deepest

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dimensions_and_repeated_coordinates(self, dim):
        rng = random.Random(dim + 40)
        # Half the points on a 3-value grid: repeated coordinates, which rank
        # space separates by object id.
        points = [
            tuple(rng.choice((0.0, 0.5, 1.0)) if i % 2 else rng.random() for _ in range(dim))
            for i in range(160)
        ]
        dataset = points_dataset(points, seed=dim, vocabulary=5)
        multi, backend = fused_pair(dataset, max_k=3)
        grid_point = next(p for i, p in enumerate(points) if i % 2)
        rects = [
            Rect((-1e9,) * dim, (1e9,) * dim),
            Rect.full(dim),
            Rect((5.0,) * dim, (6.0,) * dim),  # misses every point
            Rect((0.3,) * dim, (0.3,) * dim),  # an empty rank interval
            Rect(grid_point, grid_point),  # zero area, on repeated points
            Rect((0.5,) + (0.0,) * (dim - 1), (0.5,) + (1.0,) * (dim - 1)),  # zero width
        ]
        for _ in range(8):
            corners = [sorted((rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1))) for _ in range(dim)]
            rects.append(Rect([c[0] for c in corners], [c[1] for c in corners]))
        for rect in rects:
            for words in ([1, 2], [2, 3, 4], [1, 9999], [3, 9998, 9999]):
                served = run_fused_both(multi, backend, rect, words)
                assert served[0] == served[1], (dim, rect, words)
                charges = fused_charges(multi.fused_for(len(words)), rect, words)
                for budget in sorted(fused_crossings(charges)):
                    outcomes = run_fused_both(multi, backend, rect, words, budget)
                    assert outcomes[0] == outcomes[1], (dim, rect, words, budget)

    def test_edges_match_the_scalar_path(self):
        dataset = workload_dataset("zipf", 0)
        multi, backend = fused_pair(dataset, max_k=3)
        index = multi.fused_for(2)
        rect = Rect((0.0, 0.0), (5.0, 5.0))
        # A rectangle of another dimension and repeated keywords: the scalar
        # path's errors, before any charge.
        for bad_rect, words, match in (
            (Rect((0.0,), (1.0,)), [1, 2], "1-dimensional, data is 2-dimensional"),
            (rect, [3, 3], "distinct"),
        ):
            for query in (index.query, backend.query_fused):
                counter = CostCounter()
                with pytest.raises(ValidationError, match=match):
                    query(bad_rect, words, counter)
                assert counter.snapshot() == {"total": 0}
        # A keyword count with no index behind it.
        for words in ([1], [1, 2, 3, 4]):
            with pytest.raises(ValidationError, match="no fused index"):
                backend.query_fused(rect, words)
        # The fused strategy reads the corpus's coordinates from the tree.
        with pytest.raises(ValidationError, match="kd-tree"):
            VectorizedBackend(dataset, None, [index])

    def test_traced_charges_match_untraced_and_sum_to_the_spans(self):
        dataset = workload_dataset("planted", 1, num_objects=240)
        multi, backend = fused_pair(dataset, max_k=3)
        rng = random.Random(41)
        span = bounding_span(dataset)
        for _ in range(10):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(2, 3))
            for budget in (None, 40):
                plain = run_fused_both(multi, backend, rect, words, budget)[1]
                traced = CostCounter(budget=budget)
                traced.tracer = Tracer("query", "test")
                try:
                    ids = [o.oid for o in backend.query_fused(rect, words, traced)]
                    outcome = ("served", ids, traced.snapshot())
                except BudgetExceeded:
                    outcome = ("exceeded", traced.snapshot())
                tree = traced.tracer.finish().to_dict()
                assert outcome == plain, (rect, words, budget)
                assert _leaf_total(tree) == traced.total
                names = {child["name"] for child in tree.get("children") or []}
                assert names == {"fused-walk"}

    def test_pickled_engine_rebuilds_its_tables(self):
        import pickle

        dataset = workload_dataset("zipf", 2, num_objects=240)
        engine = QueryEngine(dataset, max_k=3, cache_size=0, backend="vectorized")
        clone = pickle.loads(pickle.dumps(engine))
        assert sorted(clone._fast.fused) == [2, 3]
        for k, table in clone._fast.fused.items():
            assert table.index is clone._index.fused_for(k)
            original = engine._fast.fused[k]
            assert table is not original
            assert table.positions.tolist() == original.positions.tolist()
        rng = random.Random(43)
        span = bounding_span(dataset)
        for _ in range(10):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(2, 3))
            for budget in (None, 25):
                assert run_fused_both(clone._index, clone._fast, rect, words, budget) == (
                    run_fused_both(engine._index, engine._fast, rect, words, budget)
                )


class TestEngineSweep:
    """The full differential matrix: workloads x seeds x budgets x sharding."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", range(2))
    def test_unsharded_backends_agree(self, workload, seed):
        dataset = workload_dataset(workload, seed)
        span = bounding_span(dataset)
        engines = {
            backend: QueryEngine(dataset, max_k=3, cache_size=0, backend=backend)
            for backend in ("cost_model", "vectorized", "auto")
        }
        rng = random.Random(seed + 500)
        for _ in range(8):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            for budget in (None, 30, 4096):
                answers, records = {}, {}
                for backend, engine in engines.items():
                    answers[backend] = sorted(
                        o.oid for o in engine.query(rect, words, budget=budget)
                    )
                    records[backend] = engine.last_record
                oracle = answers["cost_model"]
                assert answers["vectorized"] == oracle, (workload, seed, rect, words, budget)
                assert answers["auto"] == oracle, (workload, seed, rect, words, budget)
                # Budget 30 abandons probes: an abandoned vectorized probe
                # records the scalar loop's spend, so costs match too.
                fast, twin = records["vectorized"], records["cost_model"]
                assert (fast.cost, fast.fallbacks) == (twin.cost, twin.fallbacks), (
                    workload, seed, rect, words, budget,
                )

    def test_structured_only_picks_run_vectorized(self):
        """Small squares over frequent keywords: the planner picks
        structured-only, which ``vectorized`` and ``auto`` engines serve on
        the numpy path (their traces hold its ``kd-walk`` span) with records
        identical to the scalar engine's but for the backend and the trace,
        under budgets that abandon it too."""
        dataset = workload_dataset("zipf", 4, num_objects=600)
        span = bounding_span(dataset)
        frequency = Counter(word for obj in dataset.objects for word in obj.doc)
        common = [w for w in frequency if frequency[w] >= QueryEngine.AUTO_MIN_CANDIDATES]
        engines = {
            backend: QueryEngine(dataset, max_k=3, cache_size=0, backend=backend, tracing=True)
            for backend in ("cost_model", "vectorized", "auto")
        }
        rng = random.Random(77)
        walked = Counter()
        for _ in range(30):
            side = rng.uniform(0.02, 0.3) * span
            x, y = rng.uniform(0, span - side), rng.uniform(0, span - side)
            rect = Rect((x, y), (x + side, y + side))
            words = rng.sample(common, rng.randint(1, min(3, len(common))))
            for budget in (None, 8, 60):
                records = {}
                for backend, engine in engines.items():
                    engine.query(rect, words, budget=budget)
                    record = engine.last_record.to_dict()
                    assert _leaf_total(record["trace"]) == record["cost"]["total"]
                    walked[backend] += "kd-walk" in _span_names(record["trace"])
                    records[backend] = dict(record, trace=None)
                oracle = records.pop("cost_model")
                for backend, record in records.items():
                    assert dict(record, backend="cost_model") == oracle, (
                        backend, rect, words, budget,
                    )
        assert walked["cost_model"] == 0
        assert walked["vectorized"] > 0 and walked["auto"] > 0

    def test_fused_picks_run_vectorized(self):
        """Mid-frequency keyword pairs over mid-size squares (fused-lowout's
        regime, scaled down): the planner picks the fused index, which
        ``vectorized`` and ``auto`` engines serve on the numpy path (their
        traces hold its ``fused-walk`` span) with records identical to the
        scalar engine's but for the backend and the trace, under budgets
        that abandon it too."""
        dataset = zipf_dataset(
            WorkloadConfig(
                num_objects=4000, dim=2, vocabulary=64, doc_min=1, doc_max=5, seed=4,
            )
        )
        span = bounding_span(dataset)
        frequency = Counter(word for obj in dataset.objects for word in obj.doc)
        mid = sorted(frequency, key=frequency.get, reverse=True)[3:16]
        assert min(frequency[w] for w in mid) >= QueryEngine.AUTO_MIN_CANDIDATES
        engines = {
            backend: QueryEngine(dataset, max_k=2, cache_size=0, backend=backend, tracing=True)
            for backend in ("cost_model", "vectorized", "auto")
        }
        rng = random.Random(79)
        fused_picks = Counter()
        for _ in range(60):
            side = rng.uniform(0.2, 0.35) * span
            x, y = rng.uniform(0, span - side), rng.uniform(0, span - side)
            rect = Rect((x, y), (x + side, y + side))
            words = rng.sample(mid, 2)
            for budget in (None, 8, 150):
                records = {}
                for backend, engine in engines.items():
                    engine.query(rect, words, budget=budget)
                    record = engine.last_record.to_dict()
                    assert _leaf_total(record["trace"]) == record["cost"]["total"]
                    if record["strategy"] == "fused":
                        walked = "fused-walk" in _span_names(record["trace"])
                        assert walked == (backend != "cost_model"), (backend, rect, words)
                        fused_picks[backend] += 1
                    records[backend] = dict(record, trace=None)
                oracle = records.pop("cost_model")
                for backend, record in records.items():
                    assert dict(record, backend="cost_model") == oracle, (
                        backend, rect, words, budget,
                    )
                    assert record["backend"] == "vectorized"
        assert fused_picks["vectorized"] == fused_picks["auto"] >= 5, fused_picks

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_backends_agree(self, shards):
        for workload in WORKLOADS:
            dataset = workload_dataset(workload, seed=0)
            span = bounding_span(dataset)
            oracle_engine = ShardedQueryEngine(
                dataset, shards=shards, max_k=3, cache_size=0
            )
            fast_engine = ShardedQueryEngine(
                dataset, shards=shards, max_k=3, cache_size=0, backend="vectorized"
            )
            assert fast_engine.backend == "vectorized"
            assert all(e.backend == "vectorized" for e in fast_engine.shard_engines)
            rng = random.Random(600)
            for _ in range(6):
                rect = random_rect(rng, span)
                words = rng.sample(range(1, 9), rng.randint(1, 3))
                for budget in (None, 4096):
                    want = sorted(
                        o.oid for o in oracle_engine.query(rect, words, budget=budget)
                    )
                    got = sorted(
                        o.oid for o in fast_engine.query(rect, words, budget=budget)
                    )
                    assert got == want, (workload, shards, rect, words, budget)

    def test_record_reports_resolved_backend(self):
        dataset = workload_dataset("zipf", 0)
        engine = QueryEngine(dataset, max_k=2, cache_size=0, backend="vectorized")
        engine.query(Rect((0.0, 0.0), (10.0, 10.0)), [1, 2])
        record = engine.last_record
        if record.strategy == "keywords_only":
            assert record.backend == "vectorized"
        assert record.to_dict()["backend"] == record.backend

    def test_auto_resolves_from_the_query_alone(self):
        # auto vectorizes exactly the queries whose keywords-only candidate
        # estimate is at least AUTO_MIN_CANDIDATES, whatever ran before.
        dataset = workload_dataset("zipf", 3, num_objects=400)
        engine = QueryEngine(dataset, max_k=2, cache_size=0, backend="auto")
        frequency = Counter(word for obj in dataset.objects for word in obj.doc)
        floor = QueryEngine.AUTO_MIN_CANDIDATES
        rare = min(frequency, key=frequency.get)  # Zipf tail: tiny posting list
        common = max(frequency, key=frequency.get)
        mid = min((w for w in frequency if frequency[w] >= floor), key=frequency.get)
        assert frequency[rare] < floor <= frequency[mid] < frequency[common] / 2
        rect = Rect((0.0, 0.0), (bounding_span(dataset),) * 2)

        def backend(word):
            engine.query(rect, [word])
            assert engine.last_record.estimates["keywords_only"] == frequency[word]
            return engine.last_record.backend

        assert backend(mid) == "vectorized"
        for _ in range(20):
            assert backend(common) == "vectorized"
        assert backend(mid) == "vectorized"
        assert backend(rare) == "cost_model"

    def test_vectorized_engine_pickle_roundtrip(self):
        import pickle

        dataset = workload_dataset("zipf", 0)
        engine = QueryEngine(dataset, max_k=2, backend="vectorized")
        rect = Rect((0.0, 0.0), (10.0, 10.0))
        want = sorted(o.oid for o in engine.query(rect, [1, 2]))
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.backend == "vectorized"
        assert sorted(o.oid for o in clone.query(rect, [1, 2])) == want


class TestTraceInvariant:
    def test_vectorized_batch_charges_keep_leaf_sum_invariant(self):
        # Batch-granularity charges must still land inside spans: the span
        # tree's leaf costs account for every charged unit, per category.
        dataset = workload_dataset("zipf", 0)
        span = bounding_span(dataset)
        engine = QueryEngine(
            dataset, max_k=3, cache_size=0, tracing=True, backend="vectorized"
        )
        rng = random.Random(700)
        checked = 0
        for _ in range(10):
            rect = random_rect(rng, span)
            words = rng.sample(range(1, 9), rng.randint(1, 3))
            engine.query(rect, words)
            record = engine.last_record
            assert record.trace is not None
            leaf_total = _leaf_total(record.trace)
            assert leaf_total == record.cost.get("total", 0), (rect, words)
            checked += 1
        assert checked == 10

    def test_traced_vectorized_store_matches_untraced(self):
        # The tracer hook must not change what the fast path charges.
        dataset = workload_dataset("zipf", 1)
        store = ArrayStore(dataset)
        plain = CostCounter()
        store.intersect([1, 2], plain)
        traced = CostCounter()
        traced.tracer = Tracer()
        store.intersect([1, 2], traced)
        traced.tracer.finish()
        assert plain.snapshot() == traced.snapshot()


def _span_names(span_dict):
    names = {span_dict["name"]}
    for child in span_dict.get("children") or []:
        names |= _span_names(child)
    return names


def _leaf_total(span_dict) -> int:
    children = span_dict.get("children") or []
    if not children:
        return sum(span_dict.get("costs", {}).get(c, 0) for c in CATEGORIES)
    return sum(_leaf_total(child) for child in children)


def _imported_modules(path, src):
    """Absolute names of every module ``path`` imports (``from`` imports
    name the module and each imported name, since either may be a module)."""
    import ast

    # The package a relative import starts from: drop the module's own name
    # (or ``__init__``).
    package = list(path.relative_to(src).with_suffix("").parts)[:-1]
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


class TestConsumers:
    def test_core_never_imports_fast(self):
        """``fast/`` serves the engine alone: no module under ``core/``
        imports it, at module level or inside a function."""
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        offenders = [
            (path.name, name)
            for path in sorted((src / "repro" / "core").rglob("*.py"))
            for name in _imported_modules(path, src)
            if name == "repro.fast" or name.startswith("repro.fast.")
        ]
        assert offenders == []


class TestReprolint:
    def test_fast_package_is_lint_clean(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        findings = analyze_paths([root / "src" / "repro" / "fast"], root=root)
        assert findings == [], [str(f) for f in findings]


class TestVectorizedBackendUnit:
    def test_rejects_empty_keywords(self):
        backend = backend_for(workload_dataset("zipf", 0))
        with pytest.raises(ValidationError):
            backend.query_rect(Rect((0.0, 0.0), (1.0, 1.0)), [])

    def test_store_intersection_order_is_oid_sorted(self):
        for dataset in (workload_dataset("zipf", 0), out_of_oid_order(random.Random(5))):
            store = ArrayStore(dataset)
            positions = store.intersect([1, 2], CostCounter())
            oids = [dataset.objects[position].oid for position in positions.tolist()]
            assert oids and oids == sorted(oids)

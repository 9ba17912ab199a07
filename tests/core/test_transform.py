"""Unit tests for repro.core.transform (the §3 framework)."""

import gc
import math
import types

import pytest

from repro.core.keywords import node_weight
from repro.core.orp_kw import OrpKwIndex
from repro.core.transform import KeywordTransform, QueryStats, verbose_points
from repro.costmodel import CostCounter
from repro.dataset import Dataset, make_objects
from repro.errors import BudgetExceeded
from repro.geometry.rectangles import Rect
from repro.geometry.regions import EverythingRegion, RectRegion
from repro.kdtree import KdTree

from helpers import random_dataset


def build_transform(dataset, k=2):
    points = verbose_points(dataset.objects)
    lo = tuple(min(p[i] for p in points) - 1.0 for i in range(dataset.dim))
    hi = tuple(max(p[i] for p in points) + 1.0 for i in range(dataset.dim))
    tree = KdTree(points, leaf_size=1, root_cell=Rect(lo, hi))
    return KeywordTransform(dataset.objects, tree, k)


class TestVerbosePoints:
    def test_each_object_replicated_doc_times(self, tiny_dataset):
        points = verbose_points(tiny_dataset.objects)
        assert len(points) == tiny_dataset.total_doc_size
        assert points.count((1.0, 1.0)) == 2
        assert points.count((8.0, 8.0)) == 3


class TestStructuralInvariants:
    def test_every_object_in_exactly_one_pivot_or_materialized_cover(self, rng):
        """Each object appears in exactly one pivot set."""
        ds = random_dataset(rng, 50)
        transform = build_transform(ds)
        seen = {}
        stack = [transform.root]
        while stack:
            node = stack.pop()
            for obj in node.pivot:
                seen[obj.oid] = seen.get(obj.oid, 0) + 1
            stack.extend(node.children)
        # Terminal nodes with materialized lists "own" their non-pivot
        # objects implicitly; pivot ownership must still be unique.
        assert all(count == 1 for count in seen.values())

    def test_materialized_pair_appears_once(self, rng):
        """Each (object, keyword) pair is in at most one materialized list."""
        ds = random_dataset(rng, 60)
        transform = build_transform(ds)
        seen = set()
        stack = [transform.root]
        while stack:
            node = stack.pop()
            for word, members in node.materialized.items():
                for obj in members:
                    key = (obj.oid, word)
                    assert key not in seen, key
                    seen.add(key)
            stack.extend(node.children)

    def test_weights_decrease_down_the_tree(self, rng):
        ds = random_dataset(rng, 60)
        transform = build_transform(ds)
        stack = [transform.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                assert child.weight <= node.weight
                stack.append(child)

    def test_large_set_bounded_by_weight_pow(self, rng):
        ds = random_dataset(rng, 80, vocabulary=20)
        transform = build_transform(ds, k=2)
        stack = [transform.root]
        while stack:
            node = stack.pop()
            if node.weight > 0:
                assert len(node.large) <= math.sqrt(node.weight) + 1
            stack.extend(node.children)

    def test_children_only_when_k_large_keywords(self, rng):
        ds = random_dataset(rng, 60)
        transform = build_transform(ds, k=2)
        stack = [transform.root]
        while stack:
            node = stack.pop()
            if node.children:
                assert len(node.large) >= 2
            stack.extend(node.children)

    def test_space_linear(self, rng):
        ds = random_dataset(rng, 300, vocabulary=30)
        transform = build_transform(ds)
        assert transform.space_units <= 12 * transform.input_size

    def test_pivot_sets_constant_in_rank_space(self, rng):
        """With distinct coordinates every internal pivot set is O(1)."""
        # Build on distinct-coordinate data directly (rank-space surrogate).
        points = [(float(i), float((i * 7) % 101)) for i in range(80)]
        docs = [rng.sample(range(1, 9), rng.randint(1, 3)) for _ in range(80)]
        ds = Dataset(make_objects(points, docs))
        transform = build_transform(ds)
        assert transform.max_pivot_size() <= 4


def stored_objects(node):
    """Every object the transform stores at or below ``node``."""
    found = []
    stack = [node]
    while stack:
        node = stack.pop()
        found.extend(node.pivot)
        for members in node.materialized.values():
            found.extend(members)
        stack.extend(node.children)
    return found


class TestKdPrefix:
    """The build splits the kd-tree only where it descends and places each
    object with one comparison on the split axis.  Its nodes must be the
    whole tree's on the same paths, holding exactly the objects the open-cell
    rule of §3.2 gives them."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("integer_coords", [False, True])
    def test_nodes_match_the_whole_tree_and_the_open_cell_rule(
        self, rng, k, integer_coords
    ):
        ds = random_dataset(
            rng, 400, vocabulary=6, integer_coords=integer_coords
        )
        index = OrpKwIndex(ds, k=k)
        full = index.kd_tree()
        pivots = 0
        stack = [(index._transform.root, full.root, index._rank_objects)]
        while stack:
            node, kd_node, active = stack.pop()
            assert (node.cell.lo, node.cell.hi) == (kd_node.cell.lo, kd_node.cell.hi)
            assert node.level == kd_node.level
            assert node.weight == node_weight(active)
            if not kd_node.children or not active:
                assert node.pivot == active and not node.children
                continue
            cells = [child.cell for child in kd_node.children]
            buckets = [
                [obj for obj in active if cell.interior_contains(obj.point)]
                for cell in cells
            ]
            in_a_child = {obj.oid for bucket in buckets for obj in bucket}
            assert node.pivot == [obj for obj in active if obj.oid not in in_a_child]
            pivots += len(node.pivot)
            for obj in node.pivot:
                assert not any(cell.interior_contains(obj.point) for cell in cells)
            for child in node.children:
                assert all(
                    child.cell.interior_contains(obj.point)
                    for obj in stored_objects(child)
                )
            if node.children:
                assert len(node.children) == len(kd_node.children)
                stack.extend(zip(node.children, kd_node.children, buckets))
        # The root splits at one of its own objects, so the pivot rule ran.
        assert pivots > 0

    def test_no_kd_tree_is_kept(self, rng):
        from repro.kdtree.tree import KdNode, KdTree

        index = OrpKwIndex(random_dataset(rng, 200), k=2)
        seen, stack = set(), [index]
        while stack:
            obj = stack.pop()
            # Classes, modules and functions lead to the whole process.
            outside = (type, types.ModuleType, types.FunctionType)
            if id(obj) in seen or isinstance(obj, outside):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (KdTree, KdNode))
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 200


class TestQueries:
    def test_everything_query_returns_all_matching(self, rng):
        ds = random_dataset(rng, 70)
        transform = build_transform(ds)
        for _ in range(10):
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in transform.query(EverythingRegion(2), words))
            want = sorted(o.oid for o in ds.matching(words))
            assert got == want

    def test_rect_query_agrees_with_brute_force(self, rng):
        ds = random_dataset(rng, 90)
        transform = build_transform(ds)
        for _ in range(20):
            a, b = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            c, d = sorted([rng.uniform(0, 10), rng.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rng.sample(range(1, 9), 2)
            got = sorted(o.oid for o in transform.query(RectRegion(rect), words))
            want = sorted(
                o.oid
                for o in ds
                if rect.contains_point(o.point) and o.contains_keywords(words)
            )
            assert got == want

    def test_no_duplicates_reported(self, rng):
        ds = random_dataset(rng, 80)
        transform = build_transform(ds)
        for _ in range(10):
            words = rng.sample(range(1, 9), 2)
            found = [o.oid for o in transform.query(EverythingRegion(2), words)]
            assert len(found) == len(set(found))

    def test_unknown_keyword_empty(self, rng):
        ds = random_dataset(rng, 30)
        transform = build_transform(ds)
        assert transform.query(EverythingRegion(2), [99, 100]) == []

    def test_max_report_truncates(self, rng):
        ds = random_dataset(rng, 80)
        transform = build_transform(ds)
        words = rng.sample(range(1, 9), 2)
        full = transform.query(EverythingRegion(2), words)
        if len(full) >= 2:
            partial = transform.query(EverythingRegion(2), words, max_report=2)
            assert len(partial) == 2

    def test_budget_enforced(self, rng):
        ds = random_dataset(rng, 200)
        transform = build_transform(ds)
        counter = CostCounter(budget=3)
        with pytest.raises(BudgetExceeded):
            transform.query(EverythingRegion(2), [1, 2], counter=counter)

    def test_stats_collected(self, rng):
        ds = random_dataset(rng, 100)
        transform = build_transform(ds)
        stats = QueryStats()
        transform.query(
            RectRegion(Rect((1.0, 1.0), (8.0, 8.0))), [1, 2], stats=stats
        )
        assert stats.covered_nodes + stats.crossing_nodes == len(stats.visited_levels)


class TestThresholdAblation:
    def test_extreme_threshold_still_correct(self, rng):
        """Correctness must hold for any threshold (it only shifts cost)."""
        ds = random_dataset(rng, 60)
        points = verbose_points(ds.objects)
        tree = KdTree(points, leaf_size=1)
        for scale in (0.25, 4.0):
            transform = KeywordTransform(ds.objects, tree, 2, threshold_scale=scale)
            for _ in range(8):
                words = rng.sample(range(1, 9), 2)
                got = sorted(o.oid for o in transform.query(EverythingRegion(2), words))
                want = sorted(o.oid for o in ds.matching(words))
                assert got == want

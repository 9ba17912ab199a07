"""Unit tests for repro.kdtree."""

import math

import numpy as np
import pytest

from repro.costmodel import CostCounter
from repro.errors import ValidationError
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.rectangles import Rect
from repro.geometry.regions import ConvexRegion
from repro.kdtree import KdTree


def random_points(rng, n, d=2):
    return np.array([[rng.random() for _ in range(d)] for _ in range(n)])


class TestConstruction:
    def test_leaf_count_matches_points(self, rng):
        pts = random_points(rng, 33)
        tree = KdTree(pts)
        leaves = [n for n in tree.nodes() if n.is_leaf]
        assert sum(len(tree.subtree_indices(leaf)) for leaf in leaves) == 33

    def test_balanced_sizes(self, rng):
        pts = random_points(rng, 128)
        tree = KdTree(pts)
        for node in tree.nodes():
            assert node.size <= math.ceil(128 / 2**node.level)

    def test_height_logarithmic(self, rng):
        pts = random_points(rng, 256)
        tree = KdTree(pts)
        assert tree.height() <= math.ceil(math.log2(256)) + 1

    def test_cells_partition_parent(self, rng):
        pts = random_points(rng, 64)
        tree = KdTree(pts)
        for node in tree.nodes():
            if node.is_leaf:
                continue
            left, right = node.children
            # children cells within parent, touching at the split
            assert node.cell.covers(left.cell)
            assert node.cell.covers(right.cell)
            assert left.cell.hi[node.axis] == right.cell.lo[node.axis]

    def test_points_inside_their_leaf_cells(self, rng):
        pts = random_points(rng, 80)
        tree = KdTree(pts)
        for node in tree.nodes():
            if node.is_leaf:
                for idx in tree.subtree_indices(node):
                    assert node.cell.contains_point(pts[idx])

    def test_duplicates_supported(self):
        pts = np.array([[1.0, 1.0]] * 16 + [[2.0, 2.0]] * 16)
        tree = KdTree(pts)
        assert sum(len(tree.subtree_indices(n)) for n in tree.nodes() if n.is_leaf) == 32

    def test_custom_root_cell(self, rng):
        pts = random_points(rng, 10)
        root = Rect((-5.0, -5.0), (5.0, 5.0))
        tree = KdTree(pts, root_cell=root)
        assert tree.root.cell == root

    def test_validation(self):
        with pytest.raises(ValidationError):
            KdTree(np.empty((0, 2)))
        with pytest.raises(ValidationError):
            KdTree(np.zeros((3, 2)), leaf_size=0)
        with pytest.raises(ValidationError):
            KdTree(np.zeros((3, 2)), root_cell=Rect((0.0,), (1.0,)))

    def test_subtrees_are_contiguous_spans_of_one_permutation(self, rng):
        # Repeated coordinates too: the splits clamp, the spans still nest.
        pts = np.vstack([random_points(rng, 70), np.full((30, 2), 0.5)])
        tree = KdTree(pts, leaf_size=3)
        assert sorted(tree.perm.tolist()) == list(range(100))
        assert (tree.root.start, tree.root.end) == (0, 100)
        for node in tree.nodes():
            assert node.size == node.end - node.start
            if node.is_leaf:
                continue
            left, right = node.children
            assert (left.start, left.end, right.end) == (node.start, right.start, node.end)
            # The span is what concatenating the children's spans gave.
            assert tree.subtree_indices(node).tolist() == (
                tree.subtree_indices(left).tolist() + tree.subtree_indices(right).tolist()
            )
            for child in node.children:
                for idx in tree.subtree_indices(child):
                    assert child.cell.contains_point(pts[idx])

    def test_lazy_splits_in_any_order_grow_the_eager_tree(self, rng):
        pts = np.vstack([random_points(rng, 70), np.full((30, 2), 0.5)])
        eager = KdTree(pts, leaf_size=2)
        lazy = KdTree(pts, leaf_size=2, lazy=True)
        assert lazy.root.is_leaf
        frontier = [lazy.root]
        while frontier:
            node = frontier.pop(rng.randrange(len(frontier)))
            frontier.extend(lazy.split(node))
        assert lazy.split(lazy.root) is lazy.root.children
        assert lazy.perm.tolist() == eager.perm.tolist()

        def shape(node):
            split = None if node.is_leaf else (node.axis, node.split_value)
            return node.cell.lo, node.cell.hi, node.level, node.start, node.end, split

        assert [shape(n) for n in lazy.nodes()] == [shape(n) for n in eager.nodes()]

    def test_leaf_size_respected(self, rng):
        pts = random_points(rng, 100)
        tree = KdTree(pts, leaf_size=8)
        for node in tree.nodes():
            if node.is_leaf:
                assert len(tree.subtree_indices(node)) <= 8


class TestRangeQuery:
    def test_agrees_with_brute_force(self, rng):
        pts = random_points(rng, 150)
        tree = KdTree(pts)
        for _ in range(40):
            a, b = sorted([rng.random(), rng.random()])
            c, d = sorted([rng.random(), rng.random()])
            rect = Rect((a, c), (b, d))
            got = sorted(tree.range_query(rect))
            want = sorted(
                i for i in range(150) if rect.contains_point(pts[i])
            )
            assert got == want

    def test_full_space_query(self, rng):
        pts = random_points(rng, 50)
        tree = KdTree(pts)
        assert sorted(tree.range_query(Rect.full(2))) == list(range(50))

    def test_1d_tree(self, rng):
        pts = np.array([[rng.random()] for _ in range(60)])
        tree = KdTree(pts)
        for _ in range(20):
            a, b = sorted([rng.random(), rng.random()])
            got = sorted(tree.range_query(Rect((a,), (b,))))
            want = sorted(i for i in range(60) if a <= pts[i][0] <= b)
            assert got == want

    def test_cost_charged(self, rng):
        pts = random_points(rng, 100)
        tree = KdTree(pts)
        counter = CostCounter()
        tree.range_query(Rect((0.2, 0.2), (0.4, 0.4)), counter)
        assert counter["nodes_visited"] > 0

    def test_wrong_dimension_rejected(self, rng):
        """The containment loops zip the axes, so a rectangle of another
        dimension is refused rather than tested on the shared axes."""
        tree = KdTree(random_points(rng, 40))
        for rect in (Rect((0.0,), (1.0,)), Rect((0.0,) * 3, (1.0,) * 3)):
            with pytest.raises(ValidationError):
                tree.range_query(rect)

    def test_line_stab_visits_o_sqrt_n_nodes(self, rng):
        """Standard kd-tree property: a vertical line crosses O(sqrt n) cells."""
        n = 4096
        pts = random_points(rng, n)
        tree = KdTree(pts)
        line = Rect((0.5, -1.0), (0.5, 2.0))
        assert tree.count_crossing_nodes(line) <= 8 * math.sqrt(n)


class TestRegionQuery:
    def test_halfplane_agrees_with_brute_force(self, rng):
        pts = random_points(rng, 120)
        tree = KdTree(pts)
        for _ in range(20):
            h = HalfSpace((rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(-0.5, 1))
            region = ConvexRegion([h])
            got = sorted(tree.region_query(region))
            want = sorted(i for i in range(120) if h.contains(pts[i]))
            assert got == want

    def test_3d_tree_range(self, rng):
        pts = random_points(rng, 90, d=3)
        tree = KdTree(pts)
        rect = Rect((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
        got = sorted(tree.range_query(rect))
        want = sorted(i for i in range(90) if rect.contains_point(pts[i]))
        assert got == want

"""Extended property-based tests over the wave-2/3 structures."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamize import DynamicOrpKw
from repro.dataset import Dataset, make_objects
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.polytope import HPolytope
from repro.geometry.lp import solve_lp
from repro.geometry.rectangles import Rect
from repro.intervaltree import IntervalTree
from repro.irtree import IrTree
from repro.ksi.bitset import BitsetKSI
from repro.ksi.naive import NaiveKSI

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def point_sets(draw, dim=2):
    count = draw(st.integers(min_value=1, max_value=35))
    return [tuple(draw(coordinate) for _ in range(dim)) for _ in range(count)]


@st.composite
def rects_2d(draw):
    a, b = sorted([draw(coordinate), draw(coordinate)])
    c, d = sorted([draw(coordinate), draw(coordinate)])
    return Rect((a, c), (b, d))


@st.composite
def interval_lists(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    intervals = []
    for _ in range(count):
        a, b = sorted([draw(coordinate), draw(coordinate)])
        intervals.append((a, b))
    return intervals


@st.composite
def set_families(draw):
    num_sets = draw(st.integers(min_value=2, max_value=6))
    return [
        sorted(
            draw(st.sets(st.integers(min_value=0, max_value=25), min_size=1, max_size=15))
        )
        for _ in range(num_sets)
    ]


# -- interval tree ---------------------------------------------------------------------


@given(interval_lists(), st.tuples(coordinate, coordinate))
@settings(max_examples=60, deadline=None)
def test_interval_tree_matches_brute_force(intervals, window):
    lo, hi = sorted(window)
    tree = IntervalTree(intervals)
    got = sorted(tree.overlap_query(lo, hi))
    want = sorted(
        i for i, (a, b) in enumerate(intervals) if a <= hi and lo <= b
    )
    assert got == want


@given(interval_lists(), coordinate)
@settings(max_examples=40, deadline=None)
def test_interval_tree_stab_equals_degenerate_window(intervals, x):
    tree = IntervalTree(intervals)
    assert sorted(tree.stabbing_query(x)) == sorted(tree.overlap_query(x, x))


# -- bitset k-SI -------------------------------------------------------------------------


@given(set_families(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_bitset_matches_naive(sets, rnd):
    bits = BitsetKSI(sets)
    naive = NaiveKSI(sets)
    k = rnd.randint(2, len(sets))
    ids = rnd.sample(range(len(sets)), k)
    assert bits.report(ids) == naive.report(ids)
    assert bits.is_empty(ids) == (not naive.report(ids))


# -- IR-tree -------------------------------------------------------------------------------


@given(point_sets(), rects_2d(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_irtree_matches_brute_force(points, rect, rnd):
    docs = [
        frozenset(rnd.sample(range(1, 7), rnd.randint(1, 3))) for _ in points
    ]
    dataset = Dataset(make_objects(points, docs))
    tree = IrTree(dataset)
    words = rnd.sample(range(1, 7), 2)
    got = sorted(o.oid for o in tree.query(rect, words))
    want = sorted(
        o.oid
        for o in dataset
        if rect.contains_point(o.point) and o.contains_keywords(words)
    )
    assert got == want


# -- dynamic index ------------------------------------------------------------------------


@st.composite
def operation_sequences(draw):
    """Insert/delete/query scripts for the dynamic index."""
    length = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(length):
        kind = draw(st.sampled_from(["insert", "insert", "insert", "delete", "query"]))
        ops.append(kind)
    return ops


@given(operation_sequences(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_dynamic_index_matches_model(ops, rnd):
    index = DynamicOrpKw(k=2, dim=2)
    model = {}
    for op in ops:
        if op == "insert" or not model:
            point = (rnd.uniform(0, 10), rnd.uniform(0, 10))
            doc = frozenset(rnd.sample(range(1, 6), rnd.randint(1, 3)))
            oid = index.insert(point, doc)
            model[oid] = (point, doc)
        elif op == "delete":
            victim = rnd.choice(sorted(model))
            index.delete(victim)
            del model[victim]
        else:
            a, b = sorted([rnd.uniform(0, 10), rnd.uniform(0, 10)])
            c, d = sorted([rnd.uniform(0, 10), rnd.uniform(0, 10)])
            rect = Rect((a, c), (b, d))
            words = rnd.sample(range(1, 6), 2)
            got = sorted(o.oid for o in index.query(rect, words))
            want = sorted(
                oid
                for oid, (p, doc) in model.items()
                if rect.contains_point(p) and set(words) <= doc
            )
            assert got == want
    assert len(index) == len(model)


# -- LP optimality against vertex enumeration -----------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.tuples(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
            ),
            st.floats(min_value=0.1, max_value=2, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    ),
    st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
)
@settings(max_examples=60, deadline=None)
def test_lp_optimum_not_worse_than_any_vertex(raw_constraints, objective):
    constraints = [
        HalfSpace(coeffs, bound)
        for coeffs, bound in raw_constraints
        if any(abs(c) > 1e-9 for c in coeffs)
    ]
    if not constraints:
        return
    from repro.geometry.halfspaces import rect_to_halfspaces

    boxed = HPolytope(
        tuple(constraints) + rect_to_halfspaces((0.0, 0.0), (1.0, 1.0))
    )
    point = solve_lp(
        [(h.coeffs, h.bound) for h in constraints],
        objective,
        (0.0, 0.0),
        (1.0, 1.0),
    )
    vertices = boxed.enumerate_vertices()
    if point is None:
        # Infeasible LP must mean the boxed polytope has no vertices.
        assert vertices == []
        return
    lp_value = objective[0] * point[0] + objective[1] * point[1]
    for vertex in vertices:
        vertex_value = objective[0] * vertex[0] + objective[1] * vertex[1]
        assert lp_value <= vertex_value + 1e-6

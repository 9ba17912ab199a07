"""Simplex decomposition of convex polytopes.

Appendix D observes that the feasible region of ``s = O(1)`` linear
constraints "can be partitioned into a constant number of d-simplices", so an
LC-KW query becomes ``O(1)`` SP-KW queries.  This module performs that
partition: enumerate the (clipped) polytope's vertices, then triangulate.

For ``d == 1`` the polytope is an interval — a single 1-simplex.  For
``d >= 2`` we Delaunay-triangulate the vertex set (scipy); the Delaunay
simplices of a convex point set tile its convex hull, i.e. the polytope.
Degenerate (lower-dimensional) polytopes have no interior, so no
full-dimensional simplex exists and the decomposition is empty.  They may
still hold data (a zero-width rectangle through a data point), so
:class:`~repro.core.lc_kw.LcKwIndex` answers a feasible region without a
simplex as one convex query region instead, and runs an exact containment
filter either way: correctness never depends on the triangulation being fat.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from ..errors import GeometryError
from .polytope import HPolytope
from .simplex import Simplex

_EPS = 1e-12


def triangulate_vertices(vertices: Sequence[Sequence[float]], dim: int) -> List[Simplex]:
    """Triangulate the convex hull of ``vertices`` into d-simplices.

    Returns an empty list when the point set is degenerate (affinely
    dependent / fewer than ``d + 1`` points).
    """
    points = [tuple(float(c) for c in v) for v in vertices]
    if len(points) < dim + 1:
        return []
    if dim == 1:
        coords = sorted(p[0] for p in points)
        if coords[0] == coords[-1]:
            return []
        return [Simplex([(coords[0],), (coords[-1],)])]
    arr = np.asarray(points, dtype=float)
    try:
        tri = Delaunay(arr)
    except QhullError:
        return []  # degenerate: flat point set
    simplices: List[Simplex] = []
    for indices in tri.simplices:
        verts = arr[indices]
        volume = abs(float(np.linalg.det(verts[1:] - verts[0])))
        if volume <= _EPS:
            continue
        try:
            simplices.append(Simplex(verts.tolist()))
        except GeometryError:
            continue
    return simplices


def decompose_polytope(polytope: HPolytope) -> List[Simplex]:
    """Partition a bounded polytope into interior-disjoint d-simplices.

    The polytope must be bounded (clip with
    :func:`repro.geometry.polytope.polytope_from_constraints` first).
    """
    vertices = polytope.enumerate_vertices()
    return triangulate_vertices(vertices, polytope.dim)

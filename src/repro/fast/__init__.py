"""Vectorized numpy execution backend (the cost-model path is the oracle).

See DESIGN.md section 12: :class:`ArrayStore` lays a dataset out as
contiguous numpy arrays, :class:`VectorizedBackend` executes the
keywords-only strategy over it, and the batched filter helpers back the
``backend="vectorized"`` post-filters in ``LcKwIndex`` / ``SrpKwIndex``.
Results are byte-identical to the instrumented scalar path by construction
and by differential test (``tests/fast/test_backend_oracle.py``).
"""

from .arrays import (
    ArrayStore,
    ball_mask,
    charge_filter,
    halfspace_mask,
    points_array,
    region_mask,
)
from .backend import BACKENDS, ENGINE_BACKENDS, VectorizedBackend, validate_backend

__all__ = [
    "ArrayStore",
    "BACKENDS",
    "ENGINE_BACKENDS",
    "VectorizedBackend",
    "ball_mask",
    "charge_filter",
    "halfspace_mask",
    "points_array",
    "region_mask",
    "validate_backend",
]

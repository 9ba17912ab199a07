"""Vectorized numpy execution backend (the cost-model path is the oracle).

See DESIGN.md section 12: :class:`ArrayStore` lays a dataset out as
contiguous numpy arrays, and :class:`VectorizedBackend` executes the
keywords-only and structured-only rectangle strategies over it (the
latter over the structured index's kd-tree).  Its one consumer is
:class:`~repro.service.QueryEngine`, under ``backend="vectorized"`` or
``"auto"``.  Id lists and cost snapshots are identical to the instrumented
scalar path's by construction and by differential test
(``tests/fast/test_backend_oracle.py``).
"""

from .arrays import ArrayStore, charge_filter
from .backend import BACKENDS, VectorizedBackend, validate_backend

__all__ = [
    "ArrayStore",
    "BACKENDS",
    "VectorizedBackend",
    "charge_filter",
    "validate_backend",
]

"""Vectorized numpy execution backend (the cost-model path is the oracle).

See DESIGN.md section 12: :class:`ArrayStore` holds a dataset's posting
lists as numpy arrays of positions in ``dataset.objects``, and
:class:`VectorizedBackend` executes the keywords-only, structured-only and
fused rectangle strategies over it, the structured index's kd-tree and
the fused indexes, in positions end to end.  Its one consumer is
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

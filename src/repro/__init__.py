"""repro — indexes for keyword search with structured constraints.

A from-scratch reproduction of Lu & Tao, *Indexing for Keyword Search with
Structured Constraints*, PODS 2023 (DOI 10.1145/3584372.3588663): the §3
transformation framework, all the indexes of Table 1, their substrates
(kd-tree, partition tree, lifting, rank space, balanced cuts), the two naive
baselines, and a k-SI toolkit.

Quickstart
----------
>>> from repro import Dataset, OrpKwIndex, Rect
>>> data = Dataset.from_points(
...     [(120.0, 8.5), (180.0, 9.1), (90.0, 7.0)],
...     [{1, 2, 3}, {1, 3}, {1, 2, 3}],
... )
>>> index = OrpKwIndex(data, k=2)
>>> hotels = index.query(Rect((100.0, 8.0), (200.0, 10.0)), [1, 3])
>>> sorted(obj.oid for obj in hotels)
[0, 1]

See README.md for the full tour and DESIGN.md for the paper-to-module map.
"""

from .costmodel import CostCounter
from .dataset import Dataset, KeywordObject, RectangleObject, make_objects
from .errors import (
    BudgetExceeded,
    BuildError,
    GeometryError,
    ReproError,
    ValidationError,
)
from .geometry import HalfSpace, Rect, Simplex
from .core import (
    DimReductionOrpKw,
    L2NnIndex,
    LcKwIndex,
    LinfNnIndex,
    MultiKOrpIndex,
    OrpKwIndex,
    RrKwIndex,
    SpKwIndex,
    SrpKwIndex,
)
from .intervaltree import IntervalTree
from .core.planner import HybridPlanner
from .text import Vocabulary, dataset_from_texts, tokenize
from .ksi import BitsetKSI, InvertedIndex, KSetIndex, NaiveKSI
from .core.dynamize import (
    DynamicKeywordsOnly,
    DynamicLcKw,
    DynamicMultiKOrp,
    DynamicOrpKw,
    DynamicSrpKw,
    Dynamized,
)
from .irtree import IrTree
from .persist import load_index, save_index
from .service import (
    AdmissionController,
    AsyncQueryEngine,
    LRUCache,
    QueryEngine,
    QueryRecord,
    ShardedQueryEngine,
    Snapshot,
    SnapshotManager,
    partition_dataset,
)
from .trace import (
    MetricsRegistry,
    TraceSpan,
    Tracer,
    span_for,
)

__version__ = "1.0.0"

__all__ = [
    "CostCounter",
    "Dataset",
    "KeywordObject",
    "RectangleObject",
    "make_objects",
    "ReproError",
    "ValidationError",
    "BudgetExceeded",
    "GeometryError",
    "BuildError",
    "Rect",
    "HalfSpace",
    "Simplex",
    "OrpKwIndex",
    "DimReductionOrpKw",
    "LcKwIndex",
    "SpKwIndex",
    "RrKwIndex",
    "LinfNnIndex",
    "SrpKwIndex",
    "L2NnIndex",
    "InvertedIndex",
    "KSetIndex",
    "NaiveKSI",
    "BitsetKSI",
    "DynamicOrpKw",
    "Dynamized",
    "DynamicKeywordsOnly",
    "DynamicLcKw",
    "DynamicMultiKOrp",
    "DynamicSrpKw",
    "IrTree",
    "MultiKOrpIndex",
    "IntervalTree",
    "HybridPlanner",
    "Vocabulary",
    "dataset_from_texts",
    "tokenize",
    "save_index",
    "load_index",
    "QueryEngine",
    "QueryRecord",
    "ShardedQueryEngine",
    "partition_dataset",
    "AdmissionController",
    "AsyncQueryEngine",
    "Snapshot",
    "SnapshotManager",
    "LRUCache",
    "TraceSpan",
    "Tracer",
    "span_for",
    "MetricsRegistry",
    "__version__",
]

"""The paper's primary contribution: keyword-aware geometric indexes.

* :mod:`repro.core.transform` — the §3 four-step framework, generic over any
  space-partitioning tree;
* :mod:`repro.core.orp_kw` — Theorem 1 (ORP-KW, d ≤ 2);
* :mod:`repro.core.dim_reduction` — Theorem 2 / Lemma 11 (ORP-KW, d ≥ 3);
* :mod:`repro.core.lc_kw` — Theorems 5 and 12 (LC-KW / SP-KW);
* :mod:`repro.core.rr_kw` — Corollary 3 (RR-KW);
* :mod:`repro.core.nn_linf` — Corollary 4 (L∞ nearest neighbour);
* :mod:`repro.core.srp_kw` — Corollary 6 (spherical range reporting);
* :mod:`repro.core.nn_l2` — Corollary 7 (L2 nearest neighbour);
* :mod:`repro.core.baselines` — the two naive solutions of §1 for every
  problem.
"""

from .orp_kw import OrpKwIndex
from .dim_reduction import DimReductionOrpKw
from .lc_kw import LcKwIndex, SpKwIndex
from .rr_kw import RrKwIndex
from .nn_linf import LinfNnIndex
from .srp_kw import SrpKwIndex
from .nn_l2 import L2NnIndex
from .multi_k import MultiKOrpIndex
from .dynamize import (
    Dynamized,
    DynamicKeywordsOnly,
    DynamicLcKw,
    DynamicMultiKOrp,
    DynamicSrpKw,
)

__all__ = [
    "MultiKOrpIndex",
    "Dynamized",
    "DynamicKeywordsOnly",
    "DynamicLcKw",
    "DynamicMultiKOrp",
    "DynamicSrpKw",
    "OrpKwIndex",
    "DimReductionOrpKw",
    "LcKwIndex",
    "SpKwIndex",
    "RrKwIndex",
    "LinfNnIndex",
    "SrpKwIndex",
    "L2NnIndex",
]

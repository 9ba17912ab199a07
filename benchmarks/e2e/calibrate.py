"""A fixed CPU-bound kernel that measures how fast the machine runs right now.

On a shared virtual machine the same Python work takes from 0.7 to 1.2
times its usual CPU time, in phases lasting seconds: co-tenants contend for
caches and memory.  The benchmark runs this kernel between chunks of its
load and scales each chunk's CPU times by ``REFERENCE_S / kernel time``:
the times it reports are CPU seconds at the reference speed.  The kernel
walks memory the way the program's hot loops do — descents through a large
pointer-linked tree with a set test at each leaf, and random reads from a
list far larger than the caches — so both slow down together.  (A kernel
whose data fits in the caches does not track the slowdowns at all.)  It
uses no code from the program under test, so a change to the program
cannot move the reference.
"""

from __future__ import annotations

import random
import statistics
from time import process_time
from typing import List, Sequence

#: The kernel's CPU time on the reference machine at its usual speed, run
#: as it always is here: right after other work has evicted its data from
#: the caches.
REFERENCE_S = 0.006
#: Kernel runs pooled (a running median) to damp one run's own noise.
SMOOTHING = 5

_DEPTH = 15
_LEAF_WORDS = frozenset({1, 2})


class Calibrator:
    """Builds the kernel's data once (fixed seed); :meth:`measure` times it."""

    def __init__(self) -> None:
        rng = random.Random(20230618)
        self._tree = self._build(rng, 0.0, 1.0, _DEPTH)
        self._keys = [rng.random() for _ in range(600)]
        self._values: List[float] = [rng.random() for _ in range(1_000_000)]
        self._probes = [rng.randrange(len(self._values)) for _ in range(12_000)]

    @classmethod
    def _build(cls, rng: random.Random, lo: float, hi: float, depth: int):
        if depth == 0:
            return frozenset(rng.sample(range(1, 9), 3))
        mid = (lo + hi) / 2
        return (mid, cls._build(rng, lo, mid, depth - 1), cls._build(rng, mid, hi, depth - 1))

    def _kernel(self) -> int:
        hits = 0
        for key in self._keys:
            node = self._tree
            while type(node) is tuple:
                node = node[1] if key < node[0] else node[2]
            hits += _LEAF_WORDS <= node
        values = self._values
        total = 0.0
        for probe in self._probes:
            total += values[probe]
        return hits + (total > 0)

    def measure(self) -> float:
        """CPU seconds one run of the kernel takes now."""
        start = process_time()
        self._kernel()
        return process_time() - start


def chunk_factors(kernel_s: Sequence[float]) -> List[float]:
    """Scale factors for the chunks between consecutive kernel runs.

    Each run is replaced by the median of the ``SMOOTHING`` runs around it;
    a chunk's factor is the reference time over the mean of the smoothed
    runs at its two ends.
    """
    half = SMOOTHING // 2
    smoothed = [
        statistics.median(kernel_s[max(0, i - half):i + half + 1])
        for i in range(len(kernel_s))
    ]
    return [
        REFERENCE_S / ((smoothed[i] + smoothed[i + 1]) / 2)
        for i in range(len(smoothed) - 1)
    ]

"""Living data: insertions, deletions, and persistence.

The paper's indexes are static; this example shows the extension layer a
deployment needs — the logarithmic-method dynamization
(:class:`~repro.core.dynamize.DynamicOrpKw`) under churn, and saving/loading
a built static index (:mod:`repro.persist`).

Run with:  python examples/dynamic_updates.py
"""

import random
import tempfile
from pathlib import Path

from repro import CostCounter, Dataset, DynamicOrpKw, OrpKwIndex, Rect
from repro.persist import load_index, save_index


def main() -> None:
    rng = random.Random(11)
    index = DynamicOrpKw(k=2, dim=2)

    # Morning: listings appear.
    live = {}
    for _ in range(3000):
        point = (rng.uniform(0, 100), rng.uniform(0, 10))
        doc = frozenset(rng.sample(range(1, 13), rng.randint(1, 4)))
        oid = index.insert(point, doc)
        live[oid] = (point, doc)
    print(f"after inserts: {len(index)} live objects, buckets {index.bucket_sizes}")

    # Afternoon: a third of them churn out.
    victims = rng.sample(sorted(live), 1000)
    for oid in victims:
        index.delete(oid)
        del live[oid]
    print(f"after deletes: {len(index)} live objects, buckets {index.bucket_sizes}")

    # Queries stay exact throughout.
    rect = Rect((20.0, 6.0), (60.0, 10.0))
    words = [1, 2]
    counter = CostCounter()
    found = index.query(rect, words, counter=counter)
    expected = sorted(
        oid
        for oid, (point, doc) in live.items()
        if rect.contains_point(point) and set(words) <= doc
    )
    assert sorted(o.oid for o in found) == expected
    print(
        f"query over the churned index: {len(found)} answers, "
        f"{counter.total} cost units (exact, verified)"
    )

    # Nightly: freeze the live set into a static index and persist it.
    snapshot = Dataset.from_points(
        [p for p, _doc in live.values()], [doc for _p, doc in live.values()]
    )
    static = OrpKwIndex(snapshot, k=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nightly.idx"
        save_index(static, path)
        size_kb = path.stat().st_size / 1024
        restored = load_index(path, expected_class=OrpKwIndex)
        a = sorted(o.oid for o in static.query(rect, words))
        b = sorted(o.oid for o in restored.query(rect, words))
        assert a == b
        print(
            f"nightly snapshot: {len(snapshot)} objects -> {size_kb:.0f} KiB "
            f"on disk, answers identical after reload"
        )


if __name__ == "__main__":
    main()

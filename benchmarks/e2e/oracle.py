"""Brute-force answers for sampled reads, checked after the timed window.

The oracle shares no code with the program under test: an answer is every
object inside the closed query rectangle whose document holds every query
keyword, found by scanning all live objects.  The recorded insert/delete
stream is replayed into a plain dict, so each sampled read is checked
against the live set at the moment it ran.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

#: (oid, point, doc) — the oracle's view of an object.
Obj = Tuple[int, Tuple[float, ...], FrozenSet[int]]


def brute_force(
    objects: Iterable[Obj], lo: Sequence[float], hi: Sequence[float],
    words: Iterable[int],
) -> List[int]:
    """Sorted ids of the objects in ``[lo, hi]`` whose document has ``words``."""
    need = frozenset(words)
    return sorted(
        oid
        for oid, point, doc in objects
        if need <= doc and all(a <= c <= b for a, c, b in zip(lo, point, hi))
    )


def replay(base: Iterable[Obj], log: Iterable[tuple]) -> Tuple[int, int]:
    """Replay a write/read log over ``base``; returns (checked, mismatches).

    Log entries are ``("insert", oid, point, doc)``, ``("delete", oid)`` and
    ``("read", lo, hi, words, got_ids)``, in the order the program ran them;
    ``oid`` is the id the program returned for the insert.
    """
    live: Dict[int, Obj] = {obj[0]: obj for obj in base}
    checked = mismatches = 0
    for entry in log:
        kind = entry[0]
        if kind == "insert":
            _kind, oid, point, doc = entry
            live[oid] = (oid, tuple(point), frozenset(doc))
        elif kind == "delete":
            del live[entry[1]]
        else:
            _kind, lo, hi, words, got = entry
            checked += 1
            if sorted(got) != brute_force(live.values(), lo, hi, words):
                mismatches += 1
    return checked, mismatches

"""Pure-Python reference check of the greedy selection kernel.

Every selection path — the three layouts, frozen serving prefixes,
``what_if``'s constrained seating and ``imm_dist`` — runs the one kernel
in :func:`repro.imm.select.greedy_cover`, so cross-implementation
equivalence cannot see a bug in it.  This check compares it with a
greedy max-cover written over Python ``set``s (smallest id wins a tie)
on small seeded collections rich in ties, with ``forced`` / ``excluded``
constraints, sample prefixes and ``k = n``.
"""

from __future__ import annotations

import numpy as np

from ..imm.select import FlatCover, greedy_cover, run_local, select_seeds
from ..sampling import (
    CompressedRRRCollection,
    HypergraphRRRCollection,
    SortedRRRCollection,
)
from .report import ValidationReport

__all__ = ["check_selection_reference", "reference_greedy"]

_LAYOUTS = (SortedRRRCollection, CompressedRRRCollection, HypergraphRRRCollection)

#: Vertex 1 covers every sample vertex 0 is in, so after a correct
#: decrement vertex 0 is worthless and vertex 2 is the second pick.
_FIXED = ([[0, 1], [0, 1], [1], [2]], 3, 2)


def reference_greedy(sets, n: int, k: int, forced=(), excluded=()):
    """``(seeds, covered)`` of greedy max-cover over ``sets``."""
    alive = [set(s) for s in sets]
    seeds: list[int] = []

    def seat(v: int) -> None:
        nonlocal alive
        seeds.append(v)
        alive = [s for s in alive if v not in s]

    for v in forced:
        if v not in seeds:
            seat(v)
    while len(seeds) < k:
        candidates = [v for v in range(n) if v not in seeds and v not in excluded]
        gain = {v: sum(v in s for s in alive) for v in candidates}
        seat(max(candidates, key=lambda v: (gain[v], -v)))
    return seeds, len(sets) - len(alive)


def _cases(seed: int):
    """``(sets, n, k)``: the fixed case, then tie-rich random ones
    (a small vertex range, many duplicate sets; the last has ``k = n``)."""
    yield _FIXED
    rng = np.random.default_rng(seed)
    for trial in range(6):
        n = int(rng.integers(3, 9))
        sets = [
            sorted(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(int(rng.integers(4, 16)))
        ]
        yield sets, n, n if trial == 5 else int(rng.integers(1, n + 1))


def _collection(cls, sets, n):
    coll = cls(n)
    for s in sets:
        coll.append(np.asarray(s, dtype=np.int64))
    return coll


def check_selection_reference(
    label: str = "selection", seed: int = 0
) -> ValidationReport:
    """Every layout, a prefix and a constrained seating, against the
    reference."""
    report = ValidationReport()
    rng = np.random.default_rng(seed + 1)
    for sets, n, k in _cases(seed):
        want = reference_greedy(sets, n, k)
        runs = []  # (what, (seeds, covered), reference)
        for cls in _LAYOUTS:
            sel = select_seeds(_collection(cls, sets, n), n, k)
            runs.append((cls.__name__, (sel.seeds.tolist(), sel.covered_samples), want))
        flat = FlatCover(n, *_collection(SortedRRRCollection, sets, n).flattened())
        m = int(rng.integers(0, len(sets) + 1))
        seeds, alive = run_local(greedy_cover(flat.prefix(m), k))
        runs.append((
            f"prefix m={m}",
            (seeds.tolist(), m - int(alive.sum())),
            reference_greedy(sets[:m], n, k),
        ))
        if k < n:  # one forced vertex (given twice) and one excluded
            forced, excluded = rng.choice(n, size=2, replace=False).tolist()
            seeds, alive = run_local(greedy_cover(
                flat, k, forced=(forced, forced), excluded=(excluded,)
            ))
            runs.append((
                f"forced={forced} excluded={excluded}",
                (seeds.tolist(), len(sets) - int(alive.sum())),
                reference_greedy(sets, n, k, (forced,), (excluded,)),
            ))
        for what, got, ref in runs:
            report.check(
                got == ref,
                "selection.reference",
                f"{label} n={n} k={k} samples={len(sets)} {what}",
                f"(seeds, covered) = {got}, reference says {ref}",
            )
    return report

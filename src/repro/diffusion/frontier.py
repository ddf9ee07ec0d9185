"""Frontier dedupe shared by every level-synchronous IC traversal.

Forward cascades (:func:`~repro.diffusion.ic.ic_trial`), the serial RRR
sampler and the batched cohort kernel all turn a level's hit edges into
the next frontier the same way: the candidate ids (vertices, or packed
``sample·n + vertex`` keys), deduplicated and ascending.  That is what
``np.unique`` returns, but for the few hundred to few thousand integer
keys a level holds, NumPy 2's hash-based ``np.unique`` runs 4–25× slower
than one sort plus an adjacent-compare mask, which is all this does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order.

    Equal to ``np.unique(keys)`` (same values, same dtype).  ``keys`` is
    sorted in place, so callers pass a temporary they no longer need.
    """
    keys.sort()
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]

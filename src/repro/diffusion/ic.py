"""Forward Independent Cascade simulation (one trial).

A trial is a probabilistic BFS: at step ``i`` every vertex activated at
step ``i-1`` gets a one-shot chance to activate each currently inactive
out-neighbor ``v`` through edge ``e`` with probability ``p(e)``
(Section 3, problem statement).  The frontier expansion is vectorized:
all out-edges of the current frontier are gathered with ``np.repeat`` /
fancy indexing and the coin flips drawn as one block.
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph
from ..rng import SplitMix64
from .frontier import sorted_unique

__all__ = ["ic_trial"]


def ic_trial(
    graph: CSRGraph,
    seeds: np.ndarray,
    rng: SplitMix64,
) -> np.ndarray:
    """Run one IC diffusion trial and return the activated vertex ids.

    Parameters
    ----------
    graph:
        Input graph with IC activation probabilities on out-edges.
    seeds:
        Initially active vertex ids (``A_0 = S``); duplicates allowed.
    rng:
        Stream supplying the edge coin flips.

    Returns
    -------
    Sorted ``int64`` array of all activated vertices, ``I(S)`` for this
    trial (always a superset of ``seeds``).
    """
    active = np.zeros(graph.n, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    if len(seeds) and (seeds.min() < 0 or seeds.max() >= graph.n):
        raise ValueError("seed id out of range")
    active[seeds] = True
    frontier = np.unique(seeds)
    while len(frontier):
        starts = graph.out_indptr[frontier]
        stops = graph.out_indptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather the edge slots of all frontier out-edges.
        offsets = np.repeat(stops - counts.cumsum(), counts) + np.arange(total)
        dst = graph.out_indices[offsets].astype(np.int64)
        probs = graph.out_probs[offsets]
        hit = rng.random_block(total) < probs
        cand = dst[hit & ~active[dst]]
        if len(cand) == 0:
            break
        frontier = sorted_unique(cand)
        active[frontier] = True
    return np.flatnonzero(active).astype(np.int64)

"""``GenerateRR``: reverse probabilistic BFS from a source vertex.

Definition 3 of the paper: a random reverse reachable (RRR) set for ``v``
is the set of vertices that reach ``v`` in a graph ``g`` obtained from
``G`` by deleting each edge ``e`` with probability ``1 - p(e)``.  As in
the paper's implementation, ``g`` is never materialized: edges are
flipped lazily as the reverse traversal reaches them, which is
distribution-equivalent because each edge is examined at most once.

Model-specific frontier policies (Section 3.1, "the insertion policy into
the next frontier varies according to the diffusion model"):

* **IC** — every incoming edge of a frontier vertex is tested
  independently with its probability: a full probabilistic BFS.
* **LT** — the live-edge construction of Kempe et al.: each vertex picks
  *at most one* incoming live edge (edge ``(u, v)`` with probability
  ``w(u, v)``, no edge with the residual probability).  The reverse
  traversal is therefore a random walk that stops at the first revisit
  or when the no-edge residual fires.

The sampler returns the traversed vertices **sorted by id** — the
invariant the IMM\\ :sup:`OPT` seed-selection layout depends on — plus
the number of edges examined, which the parallel cost models consume as
the per-sample work measure.
"""

from __future__ import annotations

import numpy as np

from ..diffusion import DiffusionModel
from ..diffusion.frontier import sorted_unique
from ..graph import CSRGraph
from ..rng import SplitMix64
from ..rng.splitmix import mix64_array

__all__ = ["generate_rr", "RRRSampler", "hash_edge_flips", "in_edge_cumweights"]

_INV_2_53 = 1.0 / float(1 << 53)


def in_edge_cumweights(graph: CSRGraph) -> np.ndarray:
    """Per-vertex-local cumulative in-edge weights, aligned with the CSR.

    ``result[lo:hi]`` equals ``np.cumsum(graph.in_probs[lo:hi])`` for
    every vertex's in-slot range ``[lo, hi)`` — **bit-exactly**, because
    the construction gathers equal-degree rows into a matrix and runs
    ``np.cumsum`` along the row axis, which performs the identical
    sequence of float additions as the per-slice call it replaces.  The
    LT samplers (serial and batched) share this table so their live-edge
    picks agree to the last bit, and neither recomputes the prefix sums
    on every vertex visit.
    """
    cum = np.empty_like(graph.in_probs)
    deg = np.diff(graph.in_indptr).astype(np.int64)
    for d in np.unique(deg):
        d = int(d)
        if d == 0:
            continue
        vs = np.nonzero(deg == d)[0]
        pos = graph.in_indptr[vs].astype(np.int64)[:, None] + np.arange(d)[None, :]
        cum[pos] = np.cumsum(graph.in_probs[pos], axis=1)
    return cum


def hash_edge_flips(sample_key: int, edge_slots: np.ndarray) -> np.ndarray:
    """Uniform variates in ``[0, 1)`` keyed by (sample, edge) identity.

    A pure function of the sample key and the edge's global in-CSR slot,
    so every participant of a *partitioned* traversal flips each edge
    identically no matter which rank examines it or in which BFS order
    it is reached — the determinism requirement of the graph-partitioned
    sampler (:mod:`repro.mpi.partitioned`).
    """
    z = (
        np.uint64(sample_key)
        ^ mix64_array(edge_slots.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
    )
    return (mix64_array(z) >> np.uint64(11)).astype(np.float64) * _INV_2_53


class RRRSampler:
    """Reusable ``GenerateRR`` kernel with epoch-stamped visited marks.

    Allocating a fresh ``visited`` array per sample would cost O(n) per
    RRR set; instead one ``int64`` epoch array is allocated per sampler
    and a vertex counts as visited when its stamp equals the current
    epoch.  This mirrors the scratch-buffer reuse of the paper's C++
    implementation and keeps per-sample overhead proportional to the
    traversal, not to ``n``.

    Instances are *not* safe for concurrent use; each logical thread rank
    owns one (as each OpenMP thread does in Ripples).
    """

    __slots__ = ("graph", "model", "_epoch_mark", "_epoch", "_in_thresh", "_lt_cum")

    def __init__(self, graph: CSRGraph, model: DiffusionModel | str) -> None:
        self.graph = graph
        self.model = DiffusionModel.parse(model)
        self._epoch_mark = np.full(graph.n, -1, dtype=np.int64)
        self._epoch = -1
        self._lt_cum: np.ndarray | None = None
        # Integer acceptance thresholds: the float comparison
        # ``(raw >> 11) * 2**-53 < p`` is exactly ``(raw >> 11) <
        # ceil(p * 2**53)`` (p * 2**53 is exact in float64 — a pure
        # exponent shift), so precomputing the thresholds removes one
        # float conversion per examined edge without changing a single
        # coin flip.
        self._in_thresh = np.ceil(graph.in_probs * float(1 << 53)).astype(np.uint64)

    def generate(
        self,
        root: int,
        rng: SplitMix64,
        *,
        edge_flip: str = "stream",
    ) -> tuple[np.ndarray, int]:
        """Generate one RRR set rooted at ``root``.

        ``edge_flip`` selects how edge coins are drawn: ``"stream"``
        (default) consumes ``rng`` sequentially, matching the serial
        implementation; ``"hash"`` derives each coin from the sample key
        (``rng.seed``) and the edge's global slot via
        :func:`hash_edge_flips`, making the outcome independent of
        traversal order — the mode the graph-partitioned distributed
        sampler reproduces bit-exactly.  Only the IC model supports
        hash mode (the LT reverse walk is inherently sequential).

        Returns ``(vertices, edges_examined)`` where ``vertices`` is a
        sorted ``int32`` array always containing ``root``.
        """
        if not 0 <= root < self.graph.n:
            raise ValueError(f"root {root} out of range for n={self.graph.n}")
        if edge_flip not in ("stream", "hash"):
            raise ValueError(f"unknown edge_flip mode {edge_flip!r}")
        if self.model is DiffusionModel.IC:
            return self._generate_ic(root, rng, hash_flips=edge_flip == "hash")
        if edge_flip == "hash":
            raise ValueError("hash edge flips are only defined for the IC model")
        return self._generate_lt(root, rng)

    # -- IC ------------------------------------------------------------------

    def _generate_ic(
        self, root: int, rng: SplitMix64, hash_flips: bool = False
    ) -> tuple[np.ndarray, int]:
        g = self.graph
        self._epoch += 1
        epoch = self._epoch
        mark = self._epoch_mark
        mark[root] = epoch
        # The frontier stays int32 end to end (matching in_indices), so
        # no level ever pays a dtype-conversion copy.
        frontier = np.asarray([root], dtype=np.int32)
        visited = [frontier]
        edges_examined = 0
        while len(frontier):
            starts = g.in_indptr[frontier]
            stops = g.in_indptr[frontier + 1]
            counts = stops - starts
            total = int(counts.sum())
            if total == 0:
                break
            edges_examined += total
            offsets = np.repeat(stops - counts.cumsum(), counts) + np.arange(total)
            if hash_flips:
                hit = hash_edge_flips(rng.seed, offsets) < g.in_probs[offsets]
            else:
                raw = rng.next_u64_block(total)
                hit = (raw >> np.uint64(11)) < self._in_thresh[offsets]
            cand = g.in_indices[offsets[hit]]
            cand = cand[mark[cand] != epoch]
            if len(cand) == 0:
                break
            frontier = sorted_unique(cand)
            mark[frontier] = epoch
            visited.append(frontier)
        if len(visited) == 1:
            verts = visited[0]
        else:
            verts = np.concatenate(visited)
            verts.sort()
        return verts, edges_examined

    # -- LT ------------------------------------------------------------------

    def _generate_lt(self, root: int, rng: SplitMix64) -> tuple[np.ndarray, int]:
        g = self.graph
        if self._lt_cum is None:
            self._lt_cum = in_edge_cumweights(g)
        cum_all = self._lt_cum
        self._epoch += 1
        epoch = self._epoch
        mark = self._epoch_mark
        mark[root] = epoch
        visited = [root]
        edges_examined = 0
        current = root
        while True:
            lo = int(g.in_indptr[current])
            hi = int(g.in_indptr[current + 1])
            deg = hi - lo
            if deg == 0:
                break
            edges_examined += deg
            cum = cum_all[lo:hi]
            r = rng.random()
            if r >= cum[-1]:
                break  # the "no incoming live edge" residual fired
            pick = int(np.searchsorted(cum, r, side="right"))
            nxt = int(g.in_indices[lo + pick])
            if mark[nxt] == epoch:
                break  # walked into an already-visited vertex: stop
            mark[nxt] = epoch
            visited.append(nxt)
            current = nxt
        verts = np.asarray(visited, dtype=np.int32)
        verts.sort()
        return verts, edges_examined


def generate_rr(
    graph: CSRGraph,
    root: int,
    model: DiffusionModel | str,
    rng: SplitMix64,
) -> tuple[np.ndarray, int]:
    """One-shot convenience wrapper around :class:`RRRSampler`.

    Prefer a long-lived :class:`RRRSampler` when generating many sets —
    this wrapper re-allocates the O(n) scratch array every call.
    """
    return RRRSampler(graph, model).generate(root, rng)

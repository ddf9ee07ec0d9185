"""Greedy seed selection over an RRR collection (Algorithm 4).

The selection is the classic greedy max-cover: ``k`` iterations, each
picking the vertex contained in the most *alive* samples, then killing
(covering) every sample that contains it and decrementing the membership
counters of all their vertices.  Ties break toward the smallest vertex
id.

The loop exists once, as the generator :func:`greedy_cover`.  It yields
every ``n``-length count vector it is about to apply (the initial
membership counts, then each iteration's decrement) and applies the
vector sent back: a local caller returns it unchanged
(:func:`run_local`), :func:`repro.mpi.imm_dist` returns its All-Reduced
sum over ranks.  The layouts differ only in the *cover index* they hand
the kernel — which samples contain a vertex (``hits_of``) and how many
of a set of killed samples hold each vertex (``member_counts``):

* :class:`FlatCover` — flat incidence arrays ``(flat, indptr,
  sample_of)``: the sorted layout, frozen serving prefixes and
  ``imm_dist`` partitions.  One key sort groups the sample ids by
  vertex.
* :class:`CompressedCover` — the coded stream, parsed once per selection
  (HBMax-style); the same key sort groups the parsed entries by rank.
* :class:`HypergraphCover` — the bidirectional reference layout's own
  vertex→samples inverted index, the way Tang et al.'s code selects.

Every sample is killed at most once, so the work meters are a function
of the final covered mask; :func:`meter` computes them after the loop.
``num_ranks`` reproduces the synchronization-free work partitioning of
Algorithm 4 (thread ``t`` owns the vertex interval ``[n·t/p,
n·(t+1)/p)``) for the shared-memory cost model: the per-rank meters say
how many counter updates each rank performed, and how many binary
searches it used to locate its interval inside each sorted sample.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..sampling.collection import (
    HypergraphRRRCollection,
    RRRCollection,
    SortedRRRCollection,
)
from ..sampling.compressed import CompressedRRRCollection, _concat_ranges

__all__ = [
    "SelectionResult",
    "select_seeds",
    "greedy_cover",
    "run_local",
    "meter",
    "FlatCover",
    "CompressedCover",
    "HypergraphCover",
]


@dataclass
class SelectionResult:
    """Seed set plus the work metering the parallel cost models consume.

    Attributes
    ----------
    seeds:
        The ``k`` selected vertex ids, in selection order.
    covered_samples:
        Number of RRR sets covered by the seed set; divided by the
        collection size this is the coverage fraction ``F_R(S)`` used by
        the θ estimator.
    entries_scanned, counter_updates:
        Total work (all ranks together).
    per_rank_entries:
        Counter updates charged to each vertex-interval rank (length
        ``num_ranks``); the makespan of the selection phase is the max.
    per_rank_searches:
        Binary-search operations per rank (each rank locates its interval
        in every visited sample with two ``log(size)`` searches).
    argmax_scans:
        Elements scanned by the per-iteration parallel max reduction
        (``k`` iterations × ``n`` counters).
    """

    seeds: np.ndarray
    covered_samples: int
    entries_scanned: int = 0
    counter_updates: int = 0
    per_rank_entries: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    per_rank_searches: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    argmax_scans: int = 0

    @property
    def num_ranks(self) -> int:
        return len(self.per_rank_entries)

    def coverage_fraction(self, num_samples: int) -> float:
        """``F_R(S)``: fraction of the collection covered by the seeds."""
        return self.covered_samples / num_samples if num_samples else 0.0


# -- cover indexes -----------------------------------------------------------


def _key_sort(groups: np.ndarray, sample_of: np.ndarray, m: int) -> np.ndarray:
    """The sample ids of ``m`` samples' entries grouped by ``groups``
    (each entry's vertex or rank), ascending within each group: one sort
    of the packed key ``group·m + sample``, decoded in place."""
    m = max(m, 1)
    keys = np.multiply(groups, m, dtype=np.int64)
    keys += sample_of
    keys.sort()
    np.remainder(keys, m, out=keys)
    return keys


class _RowCover:
    """A layout whose sample rows are ranges ``[indptr[j], indptr[j+1])``
    of one entry array; the kill pass gathers them with one in-place
    ranges build into a scratch buffer that grows to the largest kill."""

    def _rows(self, killed: np.ndarray) -> np.ndarray:
        idx = _concat_ranges(
            self.indptr[killed], self.indptr[killed + 1], self._scratch
        )
        if len(idx) > len(self._scratch):
            self._scratch = idx
        return idx

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr[: self.num_samples + 1])


class FlatCover(_RowCover):
    """Cover index over flat incidence arrays ``(flat, indptr, sample_of)``.

    The vertex → samples index is one :func:`_key_sort`: the sample ids
    a vertex hits ascend, so ``hits_of`` is a slice and a prefix cut is
    one ``searchsorted``.  :meth:`prefix` shares the index with a view
    over the first ``m`` samples.
    """

    def __init__(
        self, n: int, flat: np.ndarray, indptr: np.ndarray, sample_of: np.ndarray
    ) -> None:
        self.n = n
        self.flat, self.indptr, self.sample_of = flat, indptr, sample_of
        self.num_samples = len(indptr) - 1
        self.total_entries = len(flat)
        self._hits = _key_sort(flat, sample_of, self.num_samples)
        self._all_counts = np.bincount(flat, minlength=n)
        self._vert_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._all_counts, out=self._vert_indptr[1:])
        self._scratch = np.empty(0, dtype=np.int64)

    def prefix(self, m: int) -> "FlatCover":
        """The index over the first ``m`` samples (clamped to the arrays),
        with its own kill scratch so concurrent selections never share
        one."""
        view = copy.copy(self)
        view.num_samples = min(int(m), self.num_samples)
        view.total_entries = int(self.indptr[view.num_samples])
        view._scratch = np.empty(0, dtype=np.int64)
        return view

    def counts(self) -> np.ndarray:
        if self.total_entries == len(self.flat):
            return self._all_counts
        return np.bincount(self.flat[: self.total_entries], minlength=self.n)

    def hits_of(self, v: int) -> np.ndarray:
        hits = self._hits[self._vert_indptr[v] : self._vert_indptr[v + 1]]
        if self.total_entries < len(self.flat):
            hits = hits[: int(np.searchsorted(hits, self.num_samples))]
        return hits

    def member_counts(self, killed: np.ndarray) -> np.ndarray:
        return np.bincount(self.flat[self._rows(killed)], minlength=self.n)


class CompressedCover(_RowCover):
    """Cover index straight off the coded stream.

    The collection's flat int32 rows are never materialized: one
    vectorized varint parse yields every entry's rank, one key sort
    (``rank · m + sample``) groups the sample ids by rank with ascending
    ids inside each group, and the kill pass counts the killed samples'
    ranks from that single parse and moves the ``n`` counts to vertex
    space.  The parsed entries live only as long as the cover; the
    collection stays coded.
    """

    def __init__(self, collection: CompressedRRRCollection, n: int) -> None:
        collection._ensure_ranked()
        ranks, sizes = collection.parse_stream()
        m = len(sizes)
        self.n, self.num_samples, self.total_entries = n, m, len(ranks)
        self.indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.indptr[1:])
        self._ranks = ranks
        self._rank_of = collection._rank_of
        self._vertex_of = collection._invert(np.arange(n, dtype=np.int64))
        rank_counts = np.bincount(ranks, minlength=n)
        self._counts = self._in_vertex_space(rank_counts)
        self._rank_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rank_counts, out=self._rank_indptr[1:])
        self._hits = _key_sort(
            ranks, np.repeat(np.arange(m, dtype=np.int64), sizes), m
        )
        self._scratch = np.empty(0, dtype=np.int64)

    def _in_vertex_space(self, rank_counts: np.ndarray) -> np.ndarray:
        """Per-rank counts re-indexed by vertex id: ``bincount(_invert(
        ranks))`` without inverting every entry."""
        out = np.empty(self.n, dtype=np.int64)
        out[self._vertex_of] = rank_counts
        return out

    def counts(self) -> np.ndarray:
        return self._counts

    def hits_of(self, v: int) -> np.ndarray:
        r = int(self._rank_of[v])
        return self._hits[self._rank_indptr[r] : self._rank_indptr[r + 1]]

    def member_counts(self, killed: np.ndarray) -> np.ndarray:
        ranks = self._ranks[self._rows(killed)]
        return self._in_vertex_space(np.bincount(ranks, minlength=self.n))


class HypergraphCover:
    """The bidirectional layout's native inverted index and sample lists
    (the doubled storage accounted in its ``nbytes_model``)."""

    def __init__(self, collection: HypergraphRRRCollection, n: int) -> None:
        self.n = n
        self.num_samples = len(collection)
        self.total_entries = int(collection.total_entries)
        self._coll = collection

    def counts(self) -> np.ndarray:
        return self._coll.counters()

    def hits_of(self, v: int) -> np.ndarray:
        return np.asarray(self._coll.samples_containing(v), dtype=np.int64)

    def member_counts(self, killed: np.ndarray) -> np.ndarray:
        members = np.concatenate([self._coll[s] for s in killed])
        return np.bincount(members, minlength=self.n)

    @property
    def sizes(self) -> np.ndarray:
        return np.fromiter(
            (len(s) for s in self._coll), dtype=np.int64, count=self.num_samples
        )


def _cover_of(collection: RRRCollection, n: int):
    if isinstance(collection, SortedRRRCollection):
        return FlatCover(n, *collection.flattened())
    if isinstance(collection, CompressedRRRCollection):
        return CompressedCover(collection, n)
    if isinstance(collection, HypergraphRRRCollection):
        return HypergraphCover(collection, n)
    raise TypeError(f"unsupported collection type {type(collection).__name__}")


# -- the kernel --------------------------------------------------------------


def _decrement(cover, killed: np.ndarray) -> np.ndarray:
    """Membership counts of the killed samples' vertices."""
    if len(killed) == 0:
        return np.zeros(cover.n, dtype=np.int64)
    return cover.member_counts(killed)


def greedy_cover(
    cover,
    k: int,
    *,
    counts: np.ndarray | None = None,
    forced: tuple[int, ...] = (),
    excluded: tuple[int, ...] = (),
) -> Generator:
    """Greedy max-cover over ``cover`` (generator; see the module docstring).

    Yields the initial count vector (``counts``, default
    ``cover.counts()``) and then one decrement per iteration, applying
    whatever is sent back.  ``forced`` vertices are seated first, in the
    given order (duplicates skipped); ``excluded`` vertices are never
    picked.  Returns ``(seeds, alive)``: the seeds in selection order and
    the mask of samples left uncovered.
    """
    n = cover.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    seats = list(dict.fromkeys(forced))
    if len(seats) > k:
        raise ValueError(f"{len(seats)} forced vertices exceed k={k}")
    for v in excluded:
        if v in seats:
            raise ValueError(f"vertex {v} is both forced and excluded")

    counters = np.array(
        (yield cover.counts() if counts is None else counts), dtype=np.int64
    )
    counters[np.asarray(excluded, dtype=np.int64)] = -1
    alive = np.ones(cover.num_samples, dtype=bool)
    seeds = np.empty(k, dtype=np.int64)
    for i in range(k):
        if i < len(seats):
            v = seats[i]
        else:
            v = int(np.argmax(counters))
            if counters[v] < 0:  # every candidate is seated or excluded
                raise ValueError(f"cannot seat {k} seeds: only {i} candidates")
        seeds[i] = v
        hits = cover.hits_of(v)
        killed = hits[alive[hits]]
        alive[killed] = False
        counters -= (yield _decrement(cover, killed))
        counters[v] = -1  # never re-pick a chosen seed
    return seeds, alive


def run_local(steps: Generator):
    """Drive a selection whose count vectors are already global: each
    yielded vector is sent straight back."""
    try:
        vec = next(steps)
        while True:
            vec = steps.send(vec)
    except StopIteration as done:
        return done.value


def _interval_bounds(n: int, num_ranks: int) -> np.ndarray:
    """The paper's block partition: rank ``t`` owns ``[n·t/p, n·(t+1)/p)``."""
    t = np.arange(num_ranks + 1, dtype=np.int64)
    return (n * t) // num_ranks


def meter(
    cover, seeds: np.ndarray, alive: np.ndarray, num_ranks: int = 1
) -> SelectionResult:
    """The selection's result and work meters, from its final covered mask.

    The counting pass touches every entry once and each killed sample's
    entries are decremented once, so ``counter_updates = entries_scanned
    = E + Σ|R_j|`` over the covered samples.  Each rank runs two binary
    searches per visited sample (all of them in the counting pass, the
    covered ones again in the kill pass); counter updates are charged to
    the rank owning the vertex.  The hypergraph layout scans each seed's
    inverted list instead and has no interval searches.
    """
    dead = np.flatnonzero(~alive)
    sizes = cover.sizes
    updates = cover.total_entries + int(sizes[dead].sum())
    common = dict(
        seeds=seeds,
        covered_samples=len(dead),
        counter_updates=updates,
        argmax_scans=len(seeds) * cover.n,
    )
    if isinstance(cover, HypergraphCover):
        scanned = updates + sum(len(cover.hits_of(int(v))) for v in seeds)
        return SelectionResult(
            entries_scanned=scanned,
            per_rank_entries=np.asarray([updates], dtype=np.int64),
            per_rank_searches=np.zeros(1, dtype=np.int64),
            **common,
        )
    search = np.ceil(np.log2(np.maximum(sizes, 2))).astype(np.int64)
    searches = int(search.sum()) + int(search[dead].sum())
    if num_ranks > 1:
        per_vertex = cover.counts() + _decrement(cover, dead)
        csum = np.zeros(cover.n + 1, dtype=np.int64)
        np.cumsum(per_vertex, out=csum[1:])
        bounds = _interval_bounds(cover.n, num_ranks)
        per_rank_entries = csum[bounds[1:]] - csum[bounds[:-1]]
    else:
        per_rank_entries = np.asarray([updates], dtype=np.int64)
    return SelectionResult(
        entries_scanned=updates,
        per_rank_entries=per_rank_entries,
        per_rank_searches=np.full(num_ranks, searches, dtype=np.int64),
        **common,
    )


def select_seeds(
    collection: RRRCollection,
    n: int,
    k: int,
    num_ranks: int = 1,
    *,
    count_engine=None,
) -> SelectionResult:
    """Greedy selection over any collection layout.

    ``count_engine`` (a
    :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`)
    supplies the initial counters of the flat and compressed layouts from
    its partitioned or fused-histogram counting kernels — bit-identical
    to the serial count.  The hypergraph layout reads its counters off
    the inverted index.
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")
    cover = _cover_of(collection, n)
    counts = None
    if count_engine is not None:
        if isinstance(cover, FlatCover):
            counts = count_engine.count_partitioned(cover.flat, n)
        elif isinstance(cover, CompressedCover):
            counts = count_engine.count_collection(collection, n)
    seeds, alive = run_local(greedy_cover(cover, k, counts=counts))
    return meter(cover, seeds, alive, num_ranks)

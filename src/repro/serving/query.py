"""Influence queries against a frozen RRR index — no resampling.

The paper's premise is that RRR sampling dominates IMM cost; the serving
layer amortizes it.  :func:`freeze_index` runs the sampling once —
exactly Algorithm 1's control flow — and freezes the collection with its
algorithm facts; :class:`InfluenceQueryEngine` then answers ``top_k``,
``marginal_gain``, ``what_if`` and ``tighten`` queries from the mapped
bytes.

**Bit-identity by prefix replay.**  A fresh ``imm(graph, k, eps)`` is a
deterministic function of its arguments: the θ-estimation doubling
search selects over the *first* ``θ_x`` samples each round, accepts at
some coverage, and the final selection runs over ``max(θ_x_last, θ)``
samples — where sample ``j`` is itself a pure function of ``(graph,
model, seed, j)``.  The engine therefore runs the same θ schedule
(:func:`~repro.imm.theta.theta_schedule`, the one loop ``imm()`` runs)
against *prefix views* of the frozen collection: every per-round
selection happens over the same samples the fresh run would have drawn,
so the answer is bit-identical for **any** ``(k, eps)`` — not just the
pair the index was frozen with.  When a query's ``θ_x`` or ``θ`` exceeds
the frozen sample count, the deterministic streams let the engine extend
the index tail in place (old samples stay valid; θ grows monotonically);
queries that fit inside the index touch **zero** graph edges, which the
oracle's edge-meter assertion enforces.

**One greedy kernel.**  Every selection — each replayed round, the
final pick, ``what_if``'s constrained seating and ``marginal_gain``'s
covering of the given set — runs :func:`~repro.imm.select.greedy_cover`,
the kernel ``imm()`` itself selects with, over a
:class:`~repro.imm.select.FlatCover` of the mapped arrays cut to the
query's prefix.  The cover is built once per mapping and cached on the
identity of the ``flat`` array it was built from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..diffusion import DiffusionModel
from ..imm.select import FlatCover, greedy_cover, run_local, select_seeds
from ..imm.theta import drain, estimate_theta, theta_schedule
from ..sampling import BatchedRRRSampler, SortedRRRCollection, sample_batch
from .frozen import FrozenIndexError, FrozenRRRIndex

__all__ = ["InfluenceQueryEngine", "ServingResult", "MarginalGains", "freeze_index"]


@dataclass
class ServingResult:
    """Answer to one serving query, with its no-resampling accounting.

    ``edges_examined`` and ``samples_added`` are both zero when the query
    was answered entirely from the frozen index — the serving layer's
    core claim, asserted by the oracle's edge meter.  ``samples_reused``
    counts how many of the samples the answer used were already frozen
    before the query ran (for a ``tighten``, all previously landed
    samples by construction).
    """

    seeds: np.ndarray
    k: int
    epsilon: float
    model: str
    theta: int
    num_samples_used: int
    coverage: float
    lb: float
    estimation_rounds: int
    coverage_history: list[tuple[int, float]] = field(default_factory=list)
    samples_added: int = 0
    samples_reused: int = 0
    edges_examined: int = 0
    seconds: float = 0.0

    @property
    def served_from_index(self) -> bool:
        return self.samples_added == 0

    @property
    def degraded(self) -> bool:
        """``True`` only on the front end's typed degraded subclass."""
        return False


@dataclass
class MarginalGains:
    """Coverage-estimated spread of a seed set plus per-vertex marginals.

    ``spread`` is the standard RRR estimator ``n · F_R(S)``; ``gains[v]``
    is the estimated spread *increase* from adding ``v`` to the set.
    """

    spread: float
    covered_samples: int
    num_samples: int
    gains: np.ndarray  # n-length float64, 0 for vertices already in the set


def freeze_index(
    graph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    theta_cap: int | None = None,
    out_dir: str | Path,
    compress: bool = False,
) -> tuple[FrozenRRRIndex, ServingResult]:
    """Sample once (Algorithm 1's exact control flow) and freeze.

    The frozen manifest records everything the replay needs — ``(n,
    model, seed, k, eps, l, theta_cap)`` plus the derived ``(theta, lb,
    coverage_history)`` — and the per-sample examined-edge meters ride
    along so serving-time extensions account work the same way fresh
    sampling does.  ``compress=True`` writes the frequency-ranked
    delta+varint section instead of the flat incidence file (see
    :mod:`repro.serving.frozen`); served answers are bit-identical.
    """
    model = DiffusionModel.parse(model)
    t0 = time.perf_counter()
    collection = SortedRRRCollection(graph.n)
    trace: list = []
    est = estimate_theta(
        graph, k, eps, model, seed, l,
        collection=collection, theta_cap=theta_cap, trace=trace,
    )
    batch = sample_batch(graph, model, collection, est.theta, seed)
    per_edges = np.concatenate(
        [np.asarray(b.per_sample_edges, dtype=np.int64)
         for kind, b in trace if kind == "sample"]
        + [np.asarray(batch.per_sample_edges, dtype=np.int64)]
    ) if trace or batch.count else np.empty(0, dtype=np.int64)
    if len(per_edges) != len(collection):
        raise RuntimeError(
            f"edge-meter capture covers {len(per_edges)} samples, "
            f"collection holds {len(collection)}"
        )
    sel = select_seeds(collection, graph.n, k)
    index = FrozenRRRIndex.freeze(
        collection, out_dir,
        graph=graph, model=model.value, seed=seed,
        k=k, eps=eps, l=l,
        theta=est.theta, lb=est.lb, theta_cap=theta_cap,
        coverage_history=est.coverage_history,
        estimation_rounds=est.rounds,
        edges=per_edges,
        layout="compressed" if compress else "flat",
    )
    res = ServingResult(
        seeds=sel.seeds,
        k=k,
        epsilon=eps,
        model=model.value,
        theta=est.theta,
        num_samples_used=len(collection),
        coverage=sel.coverage_fraction(len(collection)),
        lb=est.lb,
        estimation_rounds=est.rounds,
        coverage_history=list(est.coverage_history),
        samples_added=len(collection),
        samples_reused=0,
        edges_examined=int(per_edges.sum()),
        seconds=time.perf_counter() - t0,
    )
    return index, res


def _validate_vertex_ids(ids, n: int, what: str) -> tuple[int, ...]:
    """Range-check query vertex ids before any coverage structure is
    touched.

    Without this, an out-of-range id surfaces as a numpy ``IndexError``
    deep inside the selection — and a *negative* id silently wraps around and
    answers about the wrong vertex, which is worse than crashing.
    """
    checked = []
    for v in np.asarray(list(ids), dtype=np.int64).tolist():
        if not 0 <= v < n:
            raise ValueError(
                f"{what} vertex {v} out of range for a graph with "
                f"{n} vertices (valid ids: 0..{n - 1})"
            )
        checked.append(int(v))
    return tuple(checked)


class InfluenceQueryEngine:
    """Serve influence queries from one frozen index.

    Parameters
    ----------
    index:
        An open :class:`FrozenRRRIndex`.
    graph:
        The graph the index was frozen against.  Verified against the
        frozen fingerprint (raising
        :class:`~repro.serving.frozen.StaleIndexError` on mismatch) and
        required only when a query must extend the index; pure in-index
        queries work without it.
    """

    def __init__(self, index: FrozenRRRIndex, graph=None, *, verify: bool = True,
                 _mutate_stream_restart: bool = False) -> None:
        if graph is not None and verify:
            index.verify_graph(graph)
        self.index = index
        self.graph = graph
        self._sampler = None
        # The cover index of the current mapping, published as ONE
        # attribute: the front end runs concurrent queries against a
        # shared engine in worker threads, and its ``flat`` identifies the
        # mapping it was built from.
        self._cover_cache: FlatCover | None = None
        #: cumulative edges examined by serving-time extensions.
        self.edges_examined = 0
        # Test hook for the tighten-reuses-wrong-stream-offset mutant:
        # extension draws streams [0, count) instead of [start, target).
        self._mutate_stream_restart = _mutate_stream_restart

    # -- selection ---------------------------------------------------------

    def _cover(self, num_samples: int) -> FlatCover:
        """The cover index over the first ``num_samples`` samples.

        Rebuilt whenever the mapping changed since the cached one was
        built, whichever thread stored it.  The prefix is clamped to the
        mapping: a concurrent extension commits the manifest count before
        the remap lands, so a racing caller's ``num_samples`` snapshot can
        momentarily exceed the mapped arrays.
        """
        flat, indptr, sample_of = self.index.arrays()
        cover = self._cover_cache
        if cover is None or cover.flat is not flat:
            # Release the stale index (and the mapping it pins) before
            # building its successor, so the two are never resident
            # together.
            cover = self._cover_cache = None
            cover = self._cover_cache = FlatCover(
                self.index.n, flat, indptr, sample_of
            )
        return cover.prefix(num_samples)

    def _select(
        self,
        num_samples: int,
        k: int,
        *,
        forced: tuple[int, ...] = (),
        excluded: tuple[int, ...] = (),
    ) -> tuple[np.ndarray, int]:
        """Greedy max-cover over the first ``num_samples`` samples:
        ``(seeds, covered)``, identical to :func:`select_seeds` on the
        same prefix.  ``forced`` vertices are seated first (in the given
        order); ``excluded`` vertices are never picked."""
        n = self.index.n
        forced = _validate_vertex_ids(forced, n, "forced")
        excluded = _validate_vertex_ids(excluded, n, "excluded")
        cover = self._cover(num_samples)
        seeds, alive = run_local(
            greedy_cover(cover, k, forced=forced, excluded=excluded)
        )
        return seeds, cover.num_samples - int(np.count_nonzero(alive))

    # -- sampling-on-demand ------------------------------------------------

    def _ensure_samples(self, target: int, allow_extend: bool) -> tuple[int, int]:
        """Grow the index to ``target`` samples; return (added, edges)."""
        idx = self.index
        if target <= idx.num_samples:
            return 0, 0
        if not allow_extend or self.graph is None:
            why = (
                "extension is disabled"
                if self.graph is not None
                else "no graph is attached to extend it"
            )
            exc = FrozenIndexError(
                f"query needs {target} samples but the index holds "
                f"{idx.num_samples} and {why}"
            )
            # The front end's degradation path reads these to report an
            # honest theta_effective/theta target pair.
            exc.needed = int(target)
            exc.have = int(idx.num_samples)
            raise exc
        start = idx.num_samples
        if self._sampler is None:
            self._sampler = BatchedRRRSampler(self.graph, idx.model)
        coll = SortedRRRCollection(idx.n)
        if self._mutate_stream_restart:
            indices = np.arange(0, target - start, dtype=np.int64)
        else:
            indices = np.arange(start, target, dtype=np.int64)
        per_sample = self._sampler.sample_into(coll, indices, idx.seed)
        flat, indptr, _ = coll.flattened()
        idx.extend(
            flat.astype(np.int32), np.diff(indptr), per_sample, start=start
        )
        edges = int(per_sample.sum())
        self.edges_examined += edges
        return target - start, edges

    # -- queries -----------------------------------------------------------

    def top_k(
        self,
        k: int | None = None,
        eps: float | None = None,
        *,
        allow_extend: bool | None = None,
    ) -> ServingResult:
        """The ``k`` best seeds, bit-identical to ``imm(graph, k, eps)``.

        Defaults to the frozen ``(k, eps)``; any other pair runs ``imm``'s
        θ schedule (:func:`~repro.imm.theta.theta_schedule`) over index
        prefixes, extending the tail only when the new pair genuinely
        demands more samples (requires ``graph``).
        ``allow_extend=False`` forbids extension even with a graph
        attached — the front end uses it to keep in-prefix queries out of
        the single-writer bulkhead; an out-of-prefix query then raises
        :class:`FrozenIndexError` with ``needed``/``have`` attributes.
        """
        t0 = time.perf_counter()
        mf = self.index.manifest
        k = int(mf["k"]) if k is None else int(k)
        eps = float(mf["eps"]) if eps is None else float(eps)
        before = self.index.num_samples
        if allow_extend is None:
            allow_extend = self.graph is not None
        added = edges = 0

        def ensure(target: int) -> None:
            nonlocal added, edges
            a, e = self._ensure_samples(target, allow_extend)
            added += a
            edges += e

        def cover(theta_x: int, _est) -> tuple[int, int]:
            ensure(theta_x)
            return self._select(theta_x, k)[1], theta_x

        est = drain(theta_schedule(
            self.index.n, k, eps, float(mf["l"]), cover,
            theta_cap=mf.get("theta_cap"),
        ))
        # The final selection runs over max(θ_x of the last round, θ).
        num_used = max(est.coverage_history[-1][0], est.theta)
        ensure(num_used)
        seeds, covered = self._select(num_used, k)
        return ServingResult(
            seeds=seeds,
            k=k,
            epsilon=eps,
            model=self.index.model,
            theta=est.theta,
            num_samples_used=num_used,
            coverage=covered / max(num_used, 1),
            lb=est.lb,
            estimation_rounds=est.rounds,
            coverage_history=est.coverage_history,
            samples_added=added,
            samples_reused=min(before, num_used),
            edges_examined=edges,
            seconds=time.perf_counter() - t0,
        )

    def tighten(self, eps: float, k: int | None = None) -> ServingResult:
        """Re-derive at a tighter ``eps``, extending the index in place.

        All previously landed samples are reused verbatim — the
        deterministic per-sample streams mean the tail the tighter θ
        demands is appended after the sealed prefix, never resampled.
        The manifest is amended to the new facts, so subsequent default
        queries serve the tightened guarantee.
        """
        res = self.top_k(k=k, eps=eps)
        self.index.amend(
            k=res.k,
            eps=res.epsilon,
            theta=res.theta,
            lb=res.lb,
            coverage_history=res.coverage_history,
            estimation_rounds=res.estimation_rounds,
        )
        return res

    def what_if(
        self,
        k: int | None = None,
        *,
        forced: tuple[int, ...] = (),
        excluded: tuple[int, ...] = (),
    ) -> ServingResult:
        """Constrained selection over the frozen samples.

        ``forced`` vertices are seated first; ``excluded`` vertices are
        never picked.  Serves from the index as-is (no resampling, no
        approximation-guarantee claim — this is the scenario-exploration
        query).
        """
        t0 = time.perf_counter()
        mf = self.index.manifest
        k = int(mf["k"]) if k is None else int(k)
        m = self.index.num_samples
        seeds, covered = self._select(
            m, k, forced=tuple(forced), excluded=tuple(excluded)
        )
        return ServingResult(
            seeds=seeds,
            k=k,
            epsilon=float(mf["eps"]),
            model=self.index.model,
            theta=int(mf["theta"]),
            num_samples_used=m,
            coverage=covered / max(m, 1),
            lb=float(mf["lb"]) if mf.get("lb") is not None else 1.0,
            estimation_rounds=int(mf.get("estimation_rounds") or 0),
            coverage_history=[],
            samples_added=0,
            samples_reused=m,
            edges_examined=0,
            seconds=time.perf_counter() - t0,
        )

    def marginal_gain(
        self, seed_set, candidates: np.ndarray | None = None
    ) -> MarginalGains:
        """Spread estimate of ``seed_set`` and marginal gains on top of it.

        Pure index read: covers the seed set's samples, then counts every
        vertex's membership among the still-alive samples.  ``gains[v]``
        is the estimated spread increase of adding ``v``; vertices in
        ``seed_set`` report 0.  ``candidates`` restricts the returned
        array to those vertices (same order) without changing values.
        """
        n, m = self.index.n, self.index.num_samples
        seed_set = _validate_vertex_ids(seed_set, n, "seed")
        if candidates is not None:
            candidates = np.asarray(
                _validate_vertex_ids(candidates, n, "candidate"), dtype=np.int64
            )
        # The cover is cut to the ``m``-sample snapshot: the front end runs
        # pure reads concurrently with a single extension writer, so the
        # mapped arrays may already cover samples past it.
        cover = self._cover(m)
        m, entries = cover.num_samples, cover.total_entries
        flat, sample_of = cover.flat, cover.sample_of
        alive = np.ones(m, dtype=bool)
        seats = tuple(dict.fromkeys(seed_set))
        if seats:
            _, alive = run_local(greedy_cover(cover, len(seats), forced=seats))
        covered = m - int(np.count_nonzero(alive))
        mask = alive[sample_of[:entries]]
        gains_count = np.bincount(flat[:entries][mask], minlength=n)
        scale = n / m if m else 0.0
        gains = gains_count.astype(np.float64) * scale
        for v in seed_set:
            gains[v] = 0.0
        if candidates is not None:
            gains = gains[candidates]
        return MarginalGains(
            spread=covered * scale,
            covered_samples=covered,
            num_samples=m,
            gains=gains,
        )

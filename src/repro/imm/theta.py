"""``EstimateTheta`` (Algorithm 2): how many RRR sets are enough.

The paper's Algorithm 2 defers the formulas ``f`` and ``f'`` to Tang et
al. (SIGMOD 2015); we implement those exactly.  The estimation is a
martingale-style doubling search: for ``x = 1, 2, ...`` it hypothesizes
that the unknown optimum ``OPT >= n / 2^x``, draws just enough samples
to test the hypothesis (``θ_x = λ' / (n / 2^x)``), runs the greedy
selector, and accepts when the observed coverage certifies a lower bound
``LB`` on ``OPT``.  The final sample count is ``θ = λ* / LB``.

Formulas (Tang et al. 2015, Lemmas 6–7; ``ℓ`` inflated by
``1 + ln 2 / ln n`` so the union bound over all rounds still yields
``1 - 1/n^ℓ`` overall):

    ε' = √2 · ε
    λ' = (2 + ⅔ ε') · (ln C(n,k) + ℓ ln n + ln log₂ n) · n / ε'²
    α  = √(ℓ ln n + ln 2)
    β  = √((1 − 1/e) · (ln C(n,k) + ℓ ln n + ln 2))
    λ* = 2n · ((1 − 1/e)·α + β)² / ε²

The search is written once, in :func:`theta_schedule`; each caller
supplies only the step that brings its sample source to ``θ_x`` and
covers it with ``k`` seeds — :func:`estimate_theta` (local samplers),
:func:`repro.mpi.imm_dist` (SPMD ranks) and
:meth:`repro.serving.InfluenceQueryEngine.top_k` (frozen-index prefixes).

All sampling done during estimation is *kept*: Algorithm 1's subsequent
``Sample`` call only tops the collection up to θ.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Generator

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..perf.counters import WorkCounters
from ..sampling import (
    BatchedRRRSampler,
    ParallelSamplingEngine,
    RRRCollection,
    RRRSampler,
    SortedRRRCollection,
    sample_batch,
)
from .select import select_seeds

__all__ = [
    "EPS_UPPER_BOUND",
    "logcnk",
    "lambda_prime",
    "lambda_star",
    "shrink_epsilon",
    "theta_schedule",
    "drain",
    "estimate_theta",
    "ThetaEstimate",
]

#: Largest admissible ``eps``: the algorithm promises a
#: ``(1 - 1/e - eps)``-approximation, which is vacuous (a non-positive
#: factor) once ``eps`` reaches ``1 - 1/e``.
EPS_UPPER_BOUND = 1.0 - 1.0 / math.e


def logcnk(n: int, k: int) -> float:
    """``ln C(n, k)`` via log-gamma (exact enough for all n, overflow-free)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _inflated_l(n: int, l: float) -> float:
    """Tang et al. set ℓ ← ℓ·(1 + ln 2 / ln n) so the failure probability
    of all estimation rounds together stays below ``1/n^ℓ``."""
    return l * (1.0 + math.log(2) / math.log(n))


def lambda_prime(n: int, k: int, eps: float, l: float) -> float:
    """The per-round sample-budget constant λ' of the doubling search."""
    eps_p = math.sqrt(2.0) * eps
    log_terms = logcnk(n, k) + l * math.log(n) + math.log(max(math.log2(n), 1.0))
    return (2.0 + 2.0 / 3.0 * eps_p) * log_terms * n / (eps_p * eps_p)


def lambda_star(n: int, k: int, eps: float, l: float) -> float:
    """The final sample-budget constant λ* (θ = λ* / LB)."""
    one_minus_inv_e = 1.0 - 1.0 / math.e
    alpha = math.sqrt(l * math.log(n) + math.log(2))
    beta = math.sqrt(one_minus_inv_e * (logcnk(n, k) + l * math.log(n) + math.log(2)))
    return 2.0 * n * (one_minus_inv_e * alpha + beta) ** 2 / (eps * eps)


def shrink_epsilon(n: int, k: int, l: float, theta_effective: int, lb: float) -> float:
    """The ε certified by a ``theta_effective · lb`` sample budget.

    Every degraded answer reports its guarantee through this one
    inversion — the MPI shrink policy, the pool engine's deadline path and
    the serving tier's prefix fallbacks: λ*(n, k, ε, l) scales as 1/ε²
    at fixed ``(n, k, l)``, so the ε a surviving budget certifies
    inverts in closed form.
    """
    return math.sqrt(
        lambda_star(n, k, 1.0, _inflated_l(n, l))
        / max(theta_effective * lb, 1.0)
    )


@dataclass
class ThetaEstimate:
    """Progress and outcome of the doubling search.

    Attributes
    ----------
    theta:
        The required number of RRR sets (0 while the search runs).
    lb:
        Certified lower bound on ``OPT`` (1.0 when no round accepted).
    collection:
        The samples drawn during estimation (reused by Algorithm 1);
        ``None`` for callers whose samples do not live in one local
        collection (distributed ranks, frozen-index replay).
    rounds:
        Number of doubling-search rounds executed.
    coverage_history:
        ``(theta_x, fraction_covered)`` per round, for diagnostics and
        the Figure 2 sweeps.
    next_x:
        The round the search runs next — past the last round once it
        has ended.  With ``lb``, ``rounds`` and ``coverage_history`` it
        is everything a checkpoint needs to resume the search.
    """

    theta: int = 0
    lb: float = 1.0
    collection: RRRCollection | None = None
    rounds: int = 0
    coverage_history: list[tuple[int, float]] = field(default_factory=list)
    next_x: int = 1


def theta_schedule(
    n: int,
    k: int,
    eps: float,
    l: float,
    cover: Callable,
    *,
    theta_cap: int | None = None,
    resume: ThetaEstimate | None = None,
) -> Generator:
    """Algorithm 2's doubling search over an abstract cover step.

    ``cover(theta_x, est)`` brings the sample source to ``theta_x``
    samples, selects ``k`` seeds over them and returns ``(covered,
    population)``: how many samples the seeds cover out of how many
    exist.  ``est`` is the search so far (a checkpoint's contents).  A
    step may instead return a generator with that return value — an SPMD
    rank's allreduces — which the schedule runs with ``yield from``.

    The schedule is itself a generator: it yields only what such steps
    yield, and returns the finished :class:`ThetaEstimate`.  Local
    callers run it with :func:`drain`, an SPMD rank program with
    ``yield from``.  ``resume`` continues a search from a checkpointed
    round boundary.

    Raises
    ------
    ValueError
        If the instance is degenerate (``n < 2``, ``k < 1``, ``k > n``)
        or ``eps`` is out of range.
    """
    if n < 2:
        raise ValueError(f"IMM needs at least 2 vertices, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 < eps < EPS_UPPER_BOUND:
        raise ValueError(
            f"eps must lie in (0, 1 - 1/e) = (0, {EPS_UPPER_BOUND:.4f}) for the "
            f"(1 - 1/e - eps) guarantee to be meaningful, got {eps}"
        )
    est = ThetaEstimate() if resume is None else resume
    l_eff = _inflated_l(n, l)
    eps_p = math.sqrt(2.0) * eps
    lam_p = lambda_prime(n, k, eps, l_eff)
    max_x = max(1, int(math.ceil(math.log2(n))) - 1)
    while est.next_x <= max_x:
        y = n / (2.0**est.next_x)
        theta_x = int(math.ceil(lam_p / y))
        if theta_cap is not None:
            theta_x = min(theta_x, theta_cap)
        step = cover(theta_x, est)
        covered, population = (yield from step) if inspect.isgenerator(step) else step
        frac = covered / max(population, 1)
        est.rounds += 1
        est.coverage_history.append((theta_x, frac))
        est.next_x += 1
        if n * frac >= (1.0 + eps_p) * y:
            est.lb = n * frac / (1.0 + eps_p)
            break
        if theta_cap is not None and theta_x >= theta_cap:
            break
    est.next_x = max_x + 1
    est.theta = int(math.ceil(lambda_star(n, k, eps, l_eff) / est.lb))
    if theta_cap is not None:
        est.theta = min(est.theta, theta_cap)
    return est


def drain(schedule: Generator) -> ThetaEstimate:
    """Run a schedule whose cover steps never suspend (every local caller)."""
    try:
        next(schedule)
    except StopIteration as done:
        return done.value
    raise RuntimeError("a local cover step suspended the θ schedule")


def estimate_theta(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    collection: RRRCollection | None = None,
    sampler: RRRSampler | BatchedRRRSampler | None = None,
    counters: WorkCounters | None = None,
    theta_cap: int | None = None,
    trace: list | None = None,
    num_ranks: int = 1,
) -> ThetaEstimate:
    """Estimate θ and return it with the samples drawn along the way.

    Parameters
    ----------
    graph, k, eps, model, seed:
        The influence-maximization instance.  ``eps`` controls the
        approximation factor ``1 - 1/e - eps`` (smaller ⇒ more samples,
        Figure 2); must lie in ``(0, 1 - 1/e)`` to keep the guarantee
        meaningful.
    l:
        Confidence exponent: the guarantee holds with probability
        ``1 - 1/n^l`` (the paper and Tang et al. use ``l = 1``).
    collection:
        Destination collection (defaults to a fresh
        :class:`SortedRRRCollection`); the parallel drivers pass their
        own so estimation samples are stored in the partitioned layout.
        Coverage fractions are over ``len(collection)``, which may
        already hold more than ``θ_x`` samples (``imm_sweep``).
    sampler:
        Optional shared sampler (a
        :class:`~repro.sampling.batched.BatchedRRRSampler`, the serial
        :class:`RRRSampler`, or a sampling engine the caller owns); its
        type selects the engine used by
        :func:`~repro.sampling.sampler.sample_batch`, and a
        :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`
        also runs the selections' counting pass.  Defaults to a fresh
        batched sampler — every engine produces bit-identical
        collections.
    counters:
        Optional work ledger to update.
    theta_cap:
        Optional hard ceiling on θ (used by benchmarks to bound runtime;
        a capped run loses the approximation guarantee and says so in
        the result).
    trace:
        Optional list receiving ``("sample", SampleBatch)`` and
        ``("select", SelectionResult)`` events in execution order.  The
        simulated-parallel drivers replay these meters through the
        machine cost models to charge the EstimateTheta phase.
    num_ranks:
        Vertex-interval rank count forwarded to the selection kernel so
        the per-rank work meters in the trace reflect the intended
        parallel decomposition.  Does not affect the selected seeds.

    Raises
    ------
    ValueError
        If the instance is degenerate (``n < 2``, ``k < 1``, ``k > n``)
        or ``eps`` is out of range.
    """
    n = graph.n
    model = DiffusionModel.parse(model)
    if collection is None:
        collection = SortedRRRCollection(n)
    if sampler is None:
        sampler = BatchedRRRSampler(graph, model)
    count_engine = sampler if isinstance(sampler, ParallelSamplingEngine) else None

    def cover(theta_x: int, _est: ThetaEstimate) -> tuple[int, int]:
        batch = sample_batch(graph, model, collection, theta_x, seed, sampler=sampler)
        if counters is not None:
            counters.edges_examined += batch.edges_examined
            counters.samples_generated += batch.count
        if trace is not None:
            trace.append(("sample", batch))
        sel = select_seeds(
            collection, n, k, num_ranks=num_ranks, count_engine=count_engine
        )
        if counters is not None:
            counters.entries_scanned += sel.entries_scanned
            counters.counter_updates += sel.counter_updates
        if trace is not None:
            trace.append(("select", sel))
        return sel.covered_samples, len(collection)

    est = drain(theta_schedule(n, k, eps, l, cover, theta_cap=theta_cap))
    est.collection = collection
    return est

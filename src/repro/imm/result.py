"""Result record shared by every IMM variant (serial, MT, distributed)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.counters import WorkCounters
from ..perf.timers import PhaseBreakdown

__all__ = ["IMMResult", "DegradedResult"]


@dataclass
class IMMResult:
    """Everything a run of any IMM variant reports.

    Attributes
    ----------
    seeds:
        The selected seed set ``S`` (``k`` vertex ids, selection order).
    k, epsilon, model, layout:
        Run configuration (``model`` is ``"IC"``/``"LT"``; ``layout`` is
        ``"sorted"`` for IMM\\ :sup:`OPT` or ``"hypergraph"`` for the
        reference layout).
    theta:
        The estimated number of RRR sets.
    num_samples:
        RRR sets actually generated (== θ unless capped).
    coverage:
        Fraction of samples covered by ``seeds`` — the unbiased-estimator
        numerator of Section 3.1: ``coverage * n`` estimates the spread.
    lb:
        The certified lower bound on OPT from the estimation phase.
    breakdown:
        Per-phase seconds (wall-clock for serial runs, modeled seconds
        for the simulated-parallel runs; :attr:`simulated` says which).
    counters:
        Work ledger (edges examined, counter updates, ...).
    memory_bytes:
        Modeled resident bytes of the RRR collection (per rank for the
        distributed variant).
    simulated:
        True when :attr:`breakdown` holds modeled time from a
        :class:`~repro.parallel.machine.MachineSpec` rather than
        measured wall-clock.
    ranks:
        Degree of parallelism the run represents (1 for serial; threads
        for MT; total ranks for distributed).
    extra:
        Variant-specific diagnostics (e.g. per-rank sample counts,
        communication seconds).
    """

    seeds: np.ndarray
    k: int
    epsilon: float
    model: str
    layout: str
    theta: int
    num_samples: int
    coverage: float
    lb: float
    breakdown: PhaseBreakdown
    counters: WorkCounters
    memory_bytes: int
    simulated: bool = False
    ranks: int = 1
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total seconds (the paper's 'time to solution')."""
        return self.breakdown.total

    def expected_spread_estimate(self, n: int) -> float:
        """``F_R(S) · n`` — the collection-based spread estimate."""
        return self.coverage * n

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"IMM[{self.layout},{self.model}] k={self.k} eps={self.epsilon}"
            f" theta={self.theta} coverage={self.coverage:.3f}"
            f" time={self.total_time:.3f}s ranks={self.ranks}"
            f"{' (simulated)' if self.simulated else ''}"
        )


@dataclass
class DegradedResult(IMMResult):
    """An honest partial result: the run budget expired mid-θ.

    The pool engine landed ``theta_effective`` samples before the
    deadline; the seed set was selected from that in-order prefix.  The
    full-θ ``(1 - 1/e - eps)`` guarantee is *waived*:
    ``epsilon_effective`` is the ε the surviving ``theta_effective · LB``
    sample budget still certifies (:func:`~repro.imm.theta.shrink_epsilon`).
    When the deadline expired before θ estimation finished, ``LB`` falls
    back to the trivial ``OPT >= 1`` bound and ``theta`` reports the
    landed count itself (no target θ was ever certified).

    ``extra`` carries the same accounting under the keys the distributed
    shrink policy uses (``degraded``, ``theta_effective``,
    ``lost_samples``, ``epsilon_effective``) so downstream tooling can
    treat both degradation paths uniformly.
    """

    theta_effective: int = 0
    epsilon_effective: float = float("inf")
    degraded_reason: str = "deadline"

    @property
    def degraded(self) -> bool:
        return True

    def summary(self) -> str:
        return (
            super().summary()
            + f" DEGRADED[{self.degraded_reason}] theta_eff={self.theta_effective}"
            + f" eps_eff={self.epsilon_effective:.3f}"
        )

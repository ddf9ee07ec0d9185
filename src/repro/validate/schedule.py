"""Closed-form check of the θ schedule against Tang et al.'s formulas.

Every IMM path runs the one loop in :func:`repro.imm.theta.theta_schedule`,
so cross-implementation equivalence cannot see a bug in it.  This check
drives it with a scripted source (fixed ``(covered, population)`` per
round, no sampling) and compares ``θ_x`` per round, ``LB`` and ``θ``
with Tang et al. (SIGMOD 2015, Lemmas 6–7) restated here, not computed
by ``lambda_prime`` / ``lambda_star``.
"""

from __future__ import annotations

import math

from ..imm.theta import ThetaEstimate, drain, theta_schedule
from .report import ValidationReport

__all__ = ["check_theta_schedule"]

#: ``(n, k, eps, l, theta_cap, first round, script)``
_CASES = (
    (1000, 10, 0.5, 1.0, None, 1, ((500, 1000), (300, 1000), (250, 1000))),  # accepts
    (1000, 10, 0.5, 1.0, 1000, 1, ((500, 1000), (300, 1000))),  # capped
    (64, 3, 0.3, 1.5, None, 1, ((0, 10),) * 5),  # never accepts: LB = 1
    (1000, 10, 0.5, 1.0, None, 2, ((300, 1000), (250, 1000))),  # resumed
)


def _closed_form(n, k, eps, l, cap, first, script):
    """``(θ_x per round, LB, θ)``."""
    l = l * (1.0 + math.log(2.0) / math.log(n))  # union bound over rounds
    e1 = math.sqrt(2.0) * eps
    log_c = math.log(math.comb(n, k))
    lam1 = (2.0 + 2.0 * e1 / 3.0) * (log_c + l * math.log(n) + math.log(math.log2(n)))
    lam1 *= n / (e1 * e1)
    c = 1.0 - 1.0 / math.e
    a = math.sqrt(l * math.log(n) + math.log(2.0))
    b = math.sqrt(c * (log_c + l * math.log(n) + math.log(2.0)))
    thetas, lb = [], 1.0
    for x, (covered, population) in zip(range(first, math.ceil(math.log2(n))), script):
        theta_x = math.ceil(lam1 / (n / 2**x))  # hypothesis OPT >= n / 2^x
        thetas.append(theta_x if cap is None else min(theta_x, cap))
        if n * covered / population >= (1.0 + e1) * n / 2**x:
            lb = n * covered / population / (1.0 + e1)
            break
        if cap is not None and thetas[-1] >= cap:
            break
    theta = math.ceil(2.0 * n * (c * a + b) ** 2 / (eps * eps) / lb)
    return thetas, lb, theta if cap is None else min(theta, cap)


def check_theta_schedule(label: str = "theta") -> ValidationReport:
    """Run every scripted case through the shared schedule."""
    report = ValidationReport()
    for n, k, eps, l, cap, first, script in _CASES:
        asked: list[int] = []

        def cover(theta_x, _est, script=script, asked=asked):
            asked.append(theta_x)
            return script[len(asked) - 1]

        resume = ThetaEstimate(rounds=first - 1, next_x=first)
        est = drain(theta_schedule(n, k, eps, l, cover, theta_cap=cap, resume=resume))
        thetas, lb, theta = _closed_form(n, k, eps, l, cap, first, script)
        report.check(
            asked == thetas
            and est.rounds == first - 1 + len(thetas)
            and math.isclose(est.lb, lb, rel_tol=1e-12)
            and est.theta == theta,
            "theta.closed-form",
            f"{label} n={n} k={k} eps={eps} l={l} cap={cap} from x={first}",
            f"(θ_x, LB, θ) = {(asked, est.lb, est.theta)}, "
            f"closed form says {(thetas, lb, theta)}",
        )
    return report

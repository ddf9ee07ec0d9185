"""Tests for the θ estimator (repro.imm.theta)."""

import math

import pytest

from repro.imm import (
    ThetaEstimate,
    estimate_theta,
    lambda_prime,
    lambda_star,
    logcnk,
    shrink_epsilon,
    theta_schedule,
)
from repro.imm.theta import drain
from repro.sampling import HypergraphRRRCollection, SortedRRRCollection


class TestLogCnk:
    def test_matches_exact_binomial(self):
        assert logcnk(10, 3) == pytest.approx(math.log(120))
        assert logcnk(5, 0) == pytest.approx(0.0)
        assert logcnk(5, 5) == pytest.approx(0.0)

    def test_symmetry(self):
        assert logcnk(20, 7) == pytest.approx(logcnk(20, 13))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            logcnk(5, 6)
        with pytest.raises(ValueError):
            logcnk(5, -1)


class TestLambdas:
    def test_lambda_star_decreasing_in_eps(self):
        assert lambda_star(1000, 10, 0.2, 1.0) > lambda_star(1000, 10, 0.5, 1.0)

    def test_lambda_star_increasing_in_k(self):
        assert lambda_star(1000, 50, 0.3, 1.0) > lambda_star(1000, 5, 0.3, 1.0)

    def test_lambda_prime_decreasing_in_eps(self):
        assert lambda_prime(1000, 10, 0.2, 1.0) > lambda_prime(1000, 10, 0.5, 1.0)

    def test_lambda_scales_superlinearly_with_n(self):
        assert lambda_star(2000, 10, 0.3, 1.0) > 2 * lambda_star(1000, 10, 0.3, 1.0) * 0.9


class TestEstimateTheta:
    def test_returns_positive_theta_and_keeps_samples(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1)
        assert isinstance(est, ThetaEstimate)
        assert est.theta > 0
        assert len(est.collection) > 0
        assert est.rounds >= 1
        assert est.lb >= 1.0

    def test_theta_grows_as_eps_shrinks(self, ba_graph):
        """The Figure 2 relationship."""
        loose = estimate_theta(ba_graph, 10, 0.6, "IC", seed=1).theta
        tight = estimate_theta(ba_graph, 10, 0.3, "IC", seed=1).theta
        assert tight > loose

    def test_theta_grows_with_k(self, ba_graph):
        small = estimate_theta(ba_graph, 5, 0.5, "IC", seed=1).theta
        large = estimate_theta(ba_graph, 40, 0.5, "IC", seed=1).theta
        assert large > small

    def test_deterministic(self, ba_graph):
        a = estimate_theta(ba_graph, 10, 0.5, "IC", seed=3)
        b = estimate_theta(ba_graph, 10, 0.5, "IC", seed=3)
        assert a.theta == b.theta
        assert a.lb == b.lb

    def test_theta_cap_respected(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, theta_cap=50)
        assert est.theta <= 50
        assert len(est.collection) <= 50

    def test_trace_records_events(self, ba_graph):
        trace = []
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, trace=trace)
        kinds = [kind for kind, _ in trace]
        assert kinds == ["sample", "select"] * est.rounds

    def test_coverage_history_recorded(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1)
        assert len(est.coverage_history) == est.rounds
        for theta_x, frac in est.coverage_history:
            assert theta_x > 0
            assert 0.0 <= frac <= 1.0

    def test_works_with_hypergraph_collection(self, ba_graph):
        coll = HypergraphRRRCollection(ba_graph.n)
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, collection=coll)
        assert est.collection is coll
        # Same θ as the sorted layout (layout cannot change the math).
        sorted_est = estimate_theta(
            ba_graph, 10, 0.5, "IC", seed=1, collection=SortedRRRCollection(ba_graph.n)
        )
        assert est.theta == sorted_est.theta

    def test_lt_model(self, ba_graph_lt):
        est = estimate_theta(ba_graph_lt, 10, 0.5, "LT", seed=1)
        assert est.theta > 0

    def test_invalid_instances_rejected(self, ba_graph):
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 0, 0.5)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, ba_graph.n + 1, 0.5)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 10, 0.0)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 10, 1.0)

    def test_eps_beyond_guarantee_rejected(self, ba_graph):
        """Regression: ``eps >= 1 - 1/e`` makes the ``(1 - 1/e - eps)``
        approximation factor non-positive; such values used to be
        accepted silently."""
        from repro.imm.theta import EPS_UPPER_BOUND

        assert abs(EPS_UPPER_BOUND - (1.0 - 1.0 / math.e)) < 1e-12
        for eps in (EPS_UPPER_BOUND, 0.64, 0.7, 0.99):
            with pytest.raises(ValueError, match="1 - 1/e"):
                estimate_theta(ba_graph, 10, eps)
        # Just inside the bound is still a valid instance.
        est = estimate_theta(ba_graph, 10, 0.63, "IC", seed=1, theta_cap=50)
        assert est.theta > 0

    def test_tiny_graph_rejected(self):
        from repro.graph import path_graph

        with pytest.raises(ValueError):
            estimate_theta(path_graph(1), 1, 0.5)


def _tang_schedule(n, k, eps, l, script, theta_cap=None):
    """Tang et al. (SIGMOD 2015) Algorithm 2 with Lemmas 6-7, written
    out here from the paper: ``(θ_x per round, LB, θ)`` for a source
    whose round ``i`` reports ``script[i] = (covered, population)``."""
    l_eff = l * (1 + math.log(2) / math.log(n))
    eps_p = math.sqrt(2) * eps
    ln_binom = math.log(math.comb(n, k))
    lam_p = (
        (2 + 2 * eps_p / 3)
        * (ln_binom + l_eff * math.log(n) + math.log(math.log2(n)))
        * n
        / eps_p**2
    )
    alpha = math.sqrt(l_eff * math.log(n) + math.log(2))
    beta = math.sqrt((1 - 1 / math.e) * (ln_binom + l_eff * math.log(n) + math.log(2)))
    lam_s = 2 * n * ((1 - 1 / math.e) * alpha + beta) ** 2 / eps**2
    thetas, lb = [], 1.0
    for x in range(1, math.ceil(math.log2(n))):
        theta_x = math.ceil(lam_p * 2**x / n)
        if theta_cap is not None:
            theta_x = min(theta_x, theta_cap)
        thetas.append(theta_x)
        covered, population = script[x - 1]
        if n * covered / population >= (1 + eps_p) * n / 2**x:
            lb = n * covered / population / (1 + eps_p)
            break
        if theta_cap is not None and theta_x >= theta_cap:
            break
    theta = math.ceil(lam_s / lb)
    return thetas, lb, theta if theta_cap is None else min(theta, theta_cap)


class _ScriptedSource:
    """A fake sample source: fixed ``(covered, population)`` per round,
    no sampling; records the θ_x each round asked for."""

    def __init__(self, script):
        self.script = list(script)
        self.asked = []

    def __call__(self, theta_x, _est):
        self.asked.append(theta_x)
        return self.script[len(self.asked) - 1]


class TestThetaScheduleClosedForm:
    """The one θ loop against independent arithmetic: every IMM path
    runs it, so cross-implementation equivalence cannot see a bug in it."""

    SCRIPT = [(500, 1000), (300, 1000), (250, 1000)]

    def run(self, n, k, eps, l, script, theta_cap=None):
        src = _ScriptedSource(script)
        est = drain(theta_schedule(n, k, eps, l, src, theta_cap=theta_cap))
        return src.asked, est

    def test_literal_row(self):
        """n=1000, k=10, ε=0.5, ℓ=1: rejects rounds 1-2, accepts round 3."""
        asked, est = self.run(1000, 10, 0.5, 1.0, self.SCRIPT)
        assert asked == [631, 1262, 2524]
        assert est.rounds == 3
        assert est.lb == pytest.approx(146.44660940672625, rel=1e-12)
        assert est.theta == 3578
        assert est.coverage_history == [(631, 0.5), (1262, 0.3), (2524, 0.25)]

    @pytest.mark.parametrize(
        "n,k,eps,l",
        [(1000, 10, 0.5, 1.0), (1000, 1, 0.2, 1.0), (64, 3, 0.3, 1.5), (5000, 50, 0.6, 2.0)],
    )
    def test_acceptance_round_matches_closed_form(self, n, k, eps, l):
        asked, est = self.run(n, k, eps, l, self.SCRIPT + [(999, 1000)] * 20)
        thetas, lb, theta = _tang_schedule(n, k, eps, l, self.SCRIPT + [(999, 1000)] * 20)
        assert asked == thetas
        assert est.rounds == len(thetas)
        assert est.lb == pytest.approx(lb, rel=1e-12)
        assert est.theta == theta

    def test_never_accepting_runs_every_round(self):
        n = 64
        asked, est = self.run(n, 3, 0.3, 1.5, [(0, 10)] * 10)
        thetas, lb, theta = _tang_schedule(n, 3, 0.3, 1.5, [(0, 10)] * 10)
        assert len(asked) == est.rounds == math.ceil(math.log2(n)) - 1 == 5
        assert asked == thetas
        assert est.lb == lb == 1.0
        assert est.theta == theta

    def test_cap_stops_a_rejecting_search(self):
        asked, est = self.run(1000, 10, 0.5, 1.0, self.SCRIPT, theta_cap=1000)
        thetas, lb, theta = _tang_schedule(1000, 10, 0.5, 1.0, self.SCRIPT, theta_cap=1000)
        assert asked == thetas == [631, 1000]
        assert est.rounds == 2
        assert est.lb == lb == 1.0
        assert est.theta == theta == 1000

    def test_resume_continues_from_a_round_boundary(self):
        full_asked, full = self.run(1000, 10, 0.5, 1.0, self.SCRIPT)
        src = _ScriptedSource(self.SCRIPT[1:])
        resume = ThetaEstimate(rounds=1, coverage_history=[(631, 0.5)], next_x=2)
        est = drain(theta_schedule(1000, 10, 0.5, 1.0, src, resume=resume))
        assert src.asked == full_asked[1:]
        assert (est.theta, est.lb, est.rounds) == (full.theta, full.lb, full.rounds)
        assert est.coverage_history == full.coverage_history

    def test_generator_steps_run_with_yield_from(self):
        """An SPMD-style step suspends (an allreduce); the schedule passes
        its yields through, so a rank program can ``yield from`` it."""

        def cover(theta_x, _est):
            covered = yield ("allreduce", theta_x)
            return covered, 1000

        sched = theta_schedule(1000, 10, 0.5, 1.0, cover)
        requests = [next(sched)]
        replies = iter([500, 300, 250])
        with pytest.raises(StopIteration) as done:
            while True:
                requests.append(sched.send(next(replies)))
        assert requests == [("allreduce", 631), ("allreduce", 1262), ("allreduce", 2524)]
        assert done.value.value.theta == 3578

    def test_drain_refuses_a_suspending_step(self):
        def cover(theta_x, _est):
            yield "allreduce"

        with pytest.raises(RuntimeError, match="suspended"):
            drain(theta_schedule(1000, 10, 0.5, 1.0, cover))

    def test_instance_checks_run_before_any_round(self):
        src = _ScriptedSource(self.SCRIPT)
        for n, k, eps in ((1, 1, 0.5), (10, 0, 0.5), (10, 11, 0.5), (10, 2, 0.7)):
            with pytest.raises(ValueError):
                drain(theta_schedule(n, k, eps, 1.0, src))
        assert src.asked == []

    def test_shrink_epsilon_inverts_lambda_star(self):
        """θ = λ*(ε)/LB samples certify exactly ε again."""
        n, k, l, lb = 1000, 10, 1.0, 146.4
        l_eff = l * (1 + math.log(2) / math.log(n))
        for eps in (0.1, 0.3, 0.5):
            budget = lambda_star(n, k, eps, l_eff) / lb
            assert shrink_epsilon(n, k, l, budget, lb) == pytest.approx(eps, rel=1e-12)

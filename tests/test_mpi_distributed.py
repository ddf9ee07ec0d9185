"""Tests for the distributed IMM (repro.mpi.distributed)."""

import numpy as np
import pytest

from repro.graph import path_graph
from repro.imm import imm
from repro.mpi import SimulatedOOMError, imm_dist
from repro.mpi.costmodel import allreduce_seconds, collective_seconds
from repro.parallel import EDISON, PUMA


class TestCostModel:
    def test_log_tree_formula(self):
        expected = 3 * (PUMA.alpha + PUMA.beta * 1000)
        assert collective_seconds(PUMA, 8, 1000) == pytest.approx(expected)

    def test_single_rank_free(self):
        assert collective_seconds(PUMA, 1, 10**9) == 0.0

    def test_allreduce_alias(self):
        assert allreduce_seconds(EDISON, 16, 64) == collective_seconds(EDISON, 16, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            collective_seconds(PUMA, 0, 10)
        with pytest.raises(ValueError):
            collective_seconds(PUMA, 2, -1)


class TestIMMDist:
    def test_seeds_identical_to_serial_any_rank_count(self, ba_graph):
        """Section 3.2 + per-sample streams: output independent of p."""
        serial = imm(ba_graph, k=8, eps=0.5, seed=3)
        for p in (1, 2, 5, 8):
            dist = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3)
            np.testing.assert_array_equal(dist.seeds, serial.seeds)
            assert dist.theta == serial.theta
            assert dist.coverage == pytest.approx(serial.coverage, abs=1e-12)

    def test_sample_partition_covers_theta(self, ba_graph):
        dist = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=4, seed=3)
        per_rank = dist.extra["per_rank_samples"]
        assert sum(per_rank) == dist.num_samples
        assert max(per_rank) - min(per_rank) <= len(per_rank)

    def test_modeled_time_decreases_with_nodes(self, ba_graph):
        # Strictly decreasing while compute dominates; at higher node
        # counts this small input saturates (the paper's own small-input
        # behaviour), so only the low-p regime is asserted strictly.
        times = [
            imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3).total_time
            for p in (1, 2, 4, 8)
        ]
        assert times[0] > times[1] > times[2]
        assert times[3] < times[0]

    def test_communication_grows_with_nodes(self, ba_graph):
        small = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, seed=3)
        large = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3)
        assert small.extra["comm_calls"] == large.extra["comm_calls"]

    def test_allreduce_count_formula(self, ba_graph):
        """Each selection = (k+1) vector allreduces + 1 scalar; there is
        one selection per estimation round plus the final one."""
        k = 6
        dist = imm_dist(ba_graph, k=k, eps=0.5, num_nodes=3, seed=3)
        rounds = imm(ba_graph, k=k, eps=0.5, seed=3).extra["estimation_rounds"]
        assert dist.extra["comm_calls"] == (rounds + 1) * (k + 2)

    def test_coverage_history_matches_serial(self, ba_graph):
        """Parity satellite: the distributed driver now reports the same
        per-round ``(theta_x, frac)`` diagnostics as the serial one, so
        Figure-2-style sweeps can run distributed."""
        serial = imm(ba_graph, k=8, eps=0.5, seed=3)
        for p in (1, 3):
            dist = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3)
            assert dist.extra["coverage_history"] == serial.extra["coverage_history"]
            assert dist.extra["estimation_rounds"] == serial.extra["estimation_rounds"]
            assert len(dist.extra["coverage_history"]) == dist.extra["estimation_rounds"]

    def test_eps_beyond_guarantee_rejected(self, ba_graph):
        """imm_dist runs the shared θ schedule, so it rejects the eps
        values imm() rejects."""
        with pytest.raises(ValueError, match="1 - 1/e"):
            imm_dist(ba_graph, k=5, eps=0.7, num_nodes=2)

    def test_leapfrog_scheme_valid(self, ba_graph):
        dist = imm_dist(
            ba_graph, k=8, eps=0.5, num_nodes=4, seed=3, rng_scheme="leapfrog"
        )
        assert len(np.unique(dist.seeds)) == 8
        assert 0.0 <= dist.coverage <= 1.0

    def test_leapfrog_differs_from_per_sample(self, ba_graph):
        a = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=4, seed=3)
        b = imm_dist(
            ba_graph, k=8, eps=0.5, num_nodes=4, seed=3, rng_scheme="leapfrog"
        )
        # Different randomness — θ or seeds will generally differ.
        assert a.theta != b.theta or not np.array_equal(a.seeds, b.seeds)

    def test_oom_model_triggers(self, ba_graph):
        with pytest.raises(SimulatedOOMError) as info:
            imm_dist(
                ba_graph, k=5, eps=0.5, num_nodes=2, seed=3, mem_per_node=1024
            )
        assert info.value.limit == 1024
        assert info.value.needed > 1024

    def test_oom_avoided_with_more_nodes(self, ba_graph):
        """The Figure 7 effect: a limit that kills p=1 passes at p=8."""
        probe = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3)
        from repro.perf.memory import graph_bytes

        limit = graph_bytes(ba_graph) + probe.memory_bytes * 3 + 2 * 8 * ba_graph.n
        imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3, mem_per_node=limit)
        with pytest.raises(SimulatedOOMError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=1, seed=3, mem_per_node=limit)

    def test_validation(self, ba_graph):
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=0)
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, rng_scheme="magic")
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, threads_per_node=999)
        # The instance checks imm() applies: k=0 used to sample a full θ
        # and return no seeds, a 1-vertex graph to divide by ln(1) = 0.
        with pytest.raises(ValueError, match="1 <= k <= n"):
            imm_dist(ba_graph, k=0, eps=0.5, num_nodes=2)
        with pytest.raises(ValueError, match="at least 2 vertices"):
            imm_dist(path_graph(1), k=1, eps=0.5, num_nodes=2)

    def test_ranks_reported_as_total_threads(self, ba_graph):
        dist = imm_dist(
            ba_graph, k=5, eps=0.5, num_nodes=4, machine=EDISON, seed=1
        )
        assert dist.ranks == 4 * EDISON.threads_per_node
        assert dist.extra["machine"] == "Edison"

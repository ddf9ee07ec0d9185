"""Tests for forward Independent Cascade simulation (repro.diffusion.ic)."""

import numpy as np
import pytest

from repro.diffusion import ic_trial
from repro.diffusion.frontier import sorted_unique
from repro.graph import complete_graph, constant_weights, from_edge_list, path_graph
from repro.rng import SplitMix64


class TestICTrial:
    def test_seeds_always_active(self, tiny_graph):
        out = ic_trial(tiny_graph, np.array([4]), SplitMix64(0))
        assert 4 in out.tolist()

    def test_probability_one_reaches_closure(self):
        g = constant_weights(path_graph(6), 1.0)
        out = ic_trial(g, np.array([0]), SplitMix64(1))
        assert out.tolist() == [0, 1, 2, 3, 4, 5]

    def test_probability_zero_stays_at_seeds(self):
        g = constant_weights(complete_graph(5), 0.0)
        out = ic_trial(g, np.array([2, 3]), SplitMix64(1))
        assert out.tolist() == [2, 3]

    def test_zero_prob_edge_blocks(self, tiny_graph):
        # 2 -> 3 has probability 0; the only path 0->1->3 has prob 1.
        out = ic_trial(tiny_graph, np.array([2]), SplitMix64(5))
        assert out.tolist() == [2]

    def test_deterministic_per_stream(self, ba_graph):
        a = ic_trial(ba_graph, np.array([0]), SplitMix64(7))
        b = ic_trial(ba_graph, np.array([0]), SplitMix64(7))
        np.testing.assert_array_equal(a, b)

    def test_result_sorted_unique(self, ba_graph):
        out = ic_trial(ba_graph, np.array([0, 0, 5]), SplitMix64(3))
        assert np.all(np.diff(out) > 0)

    def test_monotone_in_probability(self):
        # Same topology, higher probability => stochastically larger
        # spread; compare means over many trials.
        topo = path_graph(30)
        low = constant_weights(topo, 0.2)
        high = constant_weights(topo, 0.9)
        mean_low = np.mean(
            [len(ic_trial(low, np.array([0]), SplitMix64(i))) for i in range(200)]
        )
        mean_high = np.mean(
            [len(ic_trial(high, np.array([0]), SplitMix64(i))) for i in range(200)]
        )
        assert mean_high > mean_low + 2

    def test_out_of_range_seed_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            ic_trial(tiny_graph, np.array([99]), SplitMix64(0))
        with pytest.raises(ValueError):
            ic_trial(tiny_graph, np.array([-1]), SplitMix64(0))

    def test_empty_seed_set(self, tiny_graph):
        out = ic_trial(tiny_graph, np.empty(0, np.int64), SplitMix64(0))
        assert len(out) == 0

    def test_one_shot_semantics(self):
        # A vertex with a single p=0.5 out-edge: the expected activation
        # frequency over trials is ~0.5, not higher (each edge tried once).
        g = from_edge_list(2, [(0, 1, 0.5)])
        hits = sum(
            1 in ic_trial(g, np.array([0]), SplitMix64(i)).tolist()
            for i in range(2000)
        )
        assert 0.45 < hits / 2000 < 0.55


class TestSortedUnique:
    """The frontier dedupe every IC traversal shares must equal
    ``np.unique`` exactly: values, order and dtype."""

    CASES = {
        "empty": [],
        "single": [7],
        "all-duplicate": [3, 3, 3, 3],
        "already-unique": [0, 2, 5, 9, 11],
        "mixed": [9, 2, 9, 0, 5, 2, 2, 11, 0],
    }

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_np_unique(self, case, dtype):
        keys = np.asarray(self.CASES[case], dtype=dtype)
        want = np.unique(keys)
        got = sorted_unique(keys.copy())
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_random_keys(self, dtype):
        rng = np.random.default_rng(3)
        for size in (2, 150, 660, 5000):
            keys = rng.integers(0, size // 2 + 1, size).astype(dtype)
            np.testing.assert_array_equal(sorted_unique(keys.copy()), np.unique(keys))

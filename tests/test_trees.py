"""Branching-process tree arena tests."""

import numpy as np
import pytest

from oracles import ColoredTree, NodeCapExceeded, sample_ecbp


def test_empty_tree_is_just_the_root():
    tree = sample_ecbp((1.0, 1.0), 0, np.random.default_rng(0))
    assert tree.n_nodes == 1
    assert tree.depth == [0]


def test_add_child_bookkeeping():
    tree = ColoredTree()
    a = tree.add_child(0, 1)
    b = tree.add_child(a, 0)
    assert tree.parent == [-1, 0, 1]
    assert tree.edge_color == [-1, 1, 0]
    assert tree.depth == [0, 1, 2]
    assert tree.children[0] == [a] and tree.children[a] == [b]


def test_to_graph_roundtrip():
    tree = ColoredTree()
    a = tree.add_child(0, 0)
    tree.add_child(a, 1)
    g = tree.to_graph(2)
    assert g.n == 3
    assert g.color_edges(0).tolist() == [[0, 1]]
    assert g.color_edges(1).tolist() == [[1, 2]]


def test_depth_bound_respected():
    rng = np.random.default_rng(4)
    for _ in range(50):
        tree = sample_ecbp((0.7, 0.7), 3, rng)
        assert max(tree.depth) <= 3


def test_mean_offspring_matches_poisson_sum():
    # first generation size is Poisson with the summed intensity
    rng = np.random.default_rng(8)
    reps = 20000
    mu = 2.0  # (1, 1)
    total = sum(len(sample_ecbp((1.0, 1.0), 1, rng).children[0])
                for _ in range(reps))
    se = np.sqrt(mu * reps)
    assert abs(total - mu * reps) < 3.5 * se


def test_single_color_generation_means():
    # counting only pure color-0 root paths gives a Poisson(0.6) process:
    # generation d has mean 0.6^d
    rng = np.random.default_rng(15)
    lam0, depth, reps = 0.6, 3, 20000
    gen_totals = np.zeros(depth + 1)
    for _ in range(reps):
        tree = sample_ecbp((lam0, 0.4), depth, rng)
        pure = {0}
        for v in range(1, tree.n_nodes):
            if tree.edge_color[v] == 0 and tree.parent[v] in pure:
                pure.add(v)
                gen_totals[tree.depth[v]] += 1
    for d in range(1, depth + 1):
        mean = lam0 ** d
        # generation-size variance for Poisson offspring:
        # Var(Z_d) = mu^d (mu^d - 1)/(mu - 1)
        var = mean * (mean - 1.0) / (lam0 - 1.0)
        se = np.sqrt(var * reps)
        assert abs(gen_totals[d] - mean * reps) < 3.5 * se


def test_node_cap():
    rng = np.random.default_rng(1)
    with pytest.raises(NodeCapExceeded):
        sample_ecbp((3.0, 3.0), 30, rng, node_cap=50)
    with pytest.raises(ValueError):
        sample_ecbp((1.0, 1.0), -1, rng)

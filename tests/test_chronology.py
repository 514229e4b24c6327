"""Chronology atlas tests: hand-built examples and the first-appearance-order
oracle on trees."""

import numpy as np
import pytest

from caperc.graph import EdgeColoredGraph, sample_ecer
from oracles import ColoredTree, build_atlas, core_and_boundary, sample_ecbp


def test_isolated_vertex():
    g = EdgeColoredGraph(1, [[], []])
    rho, b = core_and_boundary(g, 0)
    assert rho == 1 and b == (0, 0)


def test_two_color_path():
    # 0 -(color 0)- 1 -(color 1)- 2, rooted at 0: the core is just the root,
    # and only the color-0 boundary (missing color 1) is nonempty
    g = EdgeColoredGraph(3, [[(0, 1)], [(1, 2)]])
    atlas = build_atlas(g, 0, h_max=1)
    assert atlas.r_sets[()] == frozenset({0})
    assert atlas.n_sets[(0,)] == frozenset({1})
    assert atlas.r_sets[(0,)] == frozenset({1})
    assert atlas.n_sets[(1,)] == frozenset()
    rho, b = core_and_boundary(g, 0)
    assert rho == 1 and b == (0, 1)


def test_three_color_star():
    # root 0 with one child per color: all three children are in the core
    g = EdgeColoredGraph(4, [[(0, 1)], [(0, 2)], [(0, 3)]])
    rho, b = core_and_boundary(g, 0)
    assert rho == 4 and b == (0, 0, 0)


def test_three_color_path_boundary():
    # 0 -(color 0)- 1 -(color 1)- 2: vertex 2 enters through chronology (0,1),
    # whose color set misses exactly color 2
    g = EdgeColoredGraph(3, [[(0, 1)], [(1, 2)], []])
    rho, b = core_and_boundary(g, 0)
    assert rho == 2 and b == (0, 0, 1)


def test_boundary_union_not_double_counted():
    # vertex 3 is fresh for both chronologies (0,1) and (1,0); the boundary
    # vector counts the union, not the multiset
    g = EdgeColoredGraph(4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], []])
    rho, b = core_and_boundary(g, 0)
    assert rho == 3  # root plus both length-1 children
    assert b == (0, 0, 1)


def test_atlas_from_tree_requires_k():
    tree = ColoredTree()
    with pytest.raises(ValueError):
        build_atlas(tree, 0, h_max=0)
    atlas = build_atlas(tree, 0, h_max=0, k=2)
    assert atlas.rho == 1


def _first_appearance_string(tree, v):
    colors = []
    path = []
    while v != 0:
        path.append(tree.edge_color[v])
        v = tree.parent[v]
    for c in reversed(path):
        if c not in colors:
            colors.append(c)
    return tuple(colors)


def test_tree_strings_match_first_appearance_oracle():
    # on a tree, the node whose root path first uses colors in order s lies in
    # R_s exactly; this pins the recursive graph definition to the tree law
    rng = np.random.default_rng(9)
    k = 3
    for _ in range(20):
        tree = sample_ecbp((0.5, 0.5, 0.5), 5, rng)
        atlas = build_atlas(tree, 0, h_max=k - 1, k=k)
        membership = {}
        for s, vs in atlas.r_sets.items():
            for v in vs:
                assert v not in membership, "chronology sets must be disjoint"
                membership[v] = s
        for v in range(tree.n_nodes):
            expected = _first_appearance_string(tree, v)
            if len(expected) <= k - 1:
                assert membership[v] == expected
            else:
                assert v not in membership


def test_graph_atlas_covers_reachable_small_chronologies():
    # sanity on loopy graphs: every atlas member is connected to the root and
    # the root appears exactly in the empty string's set
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = sample_ecer(12, (0.8, 0.8), rng)
        atlas = build_atlas(g, 0, h_max=1)
        assert atlas.r_sets[()] == frozenset({0})
        for s, vs in atlas.r_sets.items():
            if s:
                assert 0 not in vs


def test_h_max_validation():
    g = EdgeColoredGraph(2, [[(0, 1)], []])
    with pytest.raises(ValueError):
        build_atlas(g, 0, h_max=2)  # exceeds k-1
    with pytest.raises(ValueError):
        build_atlas(g, 5, h_max=1)  # root out of range

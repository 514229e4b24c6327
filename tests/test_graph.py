"""Graph container, ECER sampling, color unions, and connectivity tests."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

from caperc.graph import (
    EdgeColoredGraph,
    _pair_index_to_edge,
    _sample_pair_subset,
    connected_components,
    dump_graph,
    load_graph,
    sample_ecer,
)


# -- construction and canonicalization --------------------------------------

def test_edges_are_canonicalized():
    g = EdgeColoredGraph(4, [[(3, 1), (0, 2)], []])
    assert g.edge_sets[0].tolist() == [[0, 2], [1, 3]]
    assert g.edge_count(1) == 0


def test_construction_errors():
    with pytest.raises(ValueError):
        EdgeColoredGraph(3, [[(0, 0)]])  # self loop
    with pytest.raises(ValueError):
        EdgeColoredGraph(3, [[(0, 3)]])  # out of range
    with pytest.raises(ValueError):
        EdgeColoredGraph(3, [[(0, 1), (1, 0)]])  # duplicate within a color
    with pytest.raises(ValueError):
        EdgeColoredGraph(3, [])  # no colors


def test_same_pair_in_two_colors_is_allowed():
    g = EdgeColoredGraph(2, [[(0, 1)], [(0, 1)]])
    assert g.edge_count(0) == 1 and g.edge_count(1) == 1


# -- pair index decoding ----------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 13, 40])
def test_pair_decode_exhaustive(n):
    expected = list(itertools.combinations(range(n), 2))
    idx = np.arange(len(expected), dtype=np.int64)
    u, v = _pair_index_to_edge(idx, n)
    assert list(zip(u.tolist(), v.tolist())) == expected


def test_pair_subset_skipping_statistics():
    rng = np.random.default_rng(5)
    total, p, reps = 5000, 0.02, 200
    counts = [len(_sample_pair_subset(total, p, rng)) for _ in range(reps)]
    mean = total * p
    se = np.sqrt(total * p * (1 - p) / reps)
    assert abs(np.mean(counts) - mean) < 3.5 * se
    idx = _sample_pair_subset(total, p, rng)
    assert np.all(np.diff(idx) > 0) and idx.max() < total


# -- ECER sampling ----------------------------------------------------------

def test_ecer_edge_counts_match_binomial_oracle():
    n, reps = 2000, 200
    lam = (0.9, 1.3)
    rng = np.random.default_rng(11)
    totals = np.zeros(2)
    for _ in range(reps):
        g = sample_ecer(n, n, lam, rng)
        for c in range(2):
            totals[c] += g.edge_count(c)
    pairs = n * (n - 1) // 2
    for c in range(2):
        p = -np.expm1(-lam[c] / n)
        mean = reps * pairs * p
        se = np.sqrt(reps * pairs * p * (1 - p))
        assert abs(totals[c] - mean) < 3.5 * se


def test_ecer_vertex_count_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ecer(100, 200, (1.0, 1.0), rng)
    g = sample_ecer(1000, 50, (1.0, 1.0), rng)  # smaller prefix is fine
    assert g.n == 50


def test_ecer_deterministic_given_seed():
    a = sample_ecer(500, 500, (1.5, 0.5), np.random.default_rng(123))
    b = sample_ecer(500, 500, (1.5, 0.5), np.random.default_rng(123))
    for c in range(2):
        assert np.array_equal(a.edge_sets[c], b.edge_sets[c])


# -- color unions -----------------------------------------------------------

def test_project_union_matches_er_oracle():
    # the union of independent colors I is itself an ER graph whose edge
    # probability uses the summed intensity over I
    n, reps = 1000, 200
    lam = (0.7, 0.5)
    rng = np.random.default_rng(21)
    total = 0
    for _ in range(reps):
        g = sample_ecer(n, n, lam, rng)
        # a pair drawn in both colors is one edge of the union
        union = np.unique(np.concatenate(g.edge_sets), axis=0)
        total += union.shape[0]
    pairs = n * (n - 1) // 2
    p = -np.expm1(-(lam[0] + lam[1]) / n)
    mean = reps * pairs * p
    se = np.sqrt(reps * pairs * p * (1 - p))
    assert abs(total - mean) < 3.5 * se


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 3))
    pairs = list(itertools.combinations(range(n), 2))
    edge_sets = []
    for _ in range(k):
        subset = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
        edge_sets.append(subset)
    return EdgeColoredGraph(n, edge_sets)


# -- connectivity -----------------------------------------------------------

def _bfs_components(n, edges):
    """Smallest-vertex label of each vertex's component, by graph search."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * n
    for s in range(n):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = s
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if comp[w] == -1:
                    comp[w] = s
                    stack.append(w)
    return comp


def _edge_array(edges):
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def test_connected_components_against_bfs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 60
        m = int(rng.integers(0, 80))
        pairs = set()
        while len(pairs) < m:
            u, v = sorted(rng.integers(0, n, 2).tolist())
            if u != v:
                pairs.add((u, v))
        edges = sorted(pairs)
        # repeat some pairs, reversed, as a multigraph edge list
        repeats = rng.integers(0, len(edges), 10) if edges else []
        extra = [edges[i][::-1] for i in repeats]
        labels = connected_components(n, _edge_array(edges + extra))
        assert labels.dtype == np.int64
        assert labels.tolist() == _bfs_components(n, edges)


def test_connected_components_edge_cases():
    assert connected_components(0, _edge_array([])).tolist() == []
    assert connected_components(4, _edge_array([])).tolist() == [0, 1, 2, 3]
    duplicates = _edge_array([(3, 4), (4, 3), (3, 4), (1, 4)])
    assert connected_components(5, duplicates).tolist() == [0, 1, 2, 1, 1]
    # 9 hooks onto 1, not 5, so 5 joins them only in a second round
    labels = connected_components(10, _edge_array([(5, 9), (9, 1)]))
    assert labels.tolist() == [0, 1, 2, 3, 4, 1, 6, 7, 8, 1]
    path = [(v + 1, v) for v in range(30, -1, -1)]
    assert connected_components(32, _edge_array(path)).tolist() == [0] * 32


def test_partition_bookkeeping():
    labels = connected_components(5, _edge_array([(0, 1), (2, 3)]))
    assert labels.tolist() == [0, 0, 2, 2, 4]
    assert np.bincount(labels).tolist() == [2, 0, 2, 0, 1]


# -- dump / load ------------------------------------------------------------

def test_dump_load_roundtrip():
    g = EdgeColoredGraph(4, [[(0, 1), (2, 3)], [(0, 1)], []])
    buf = io.StringIO()
    dump_graph(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "4 3"
    g2 = load_graph(io.StringIO(text))
    assert g2.n == 4 and g2.k == 3
    for c in range(3):
        assert np.array_equal(g.edge_sets[c], g2.edge_sets[c])


def test_load_rejects_bad_input():
    with pytest.raises(ValueError):
        load_graph(io.StringIO("3\n"))
    with pytest.raises(ValueError):
        load_graph(io.StringIO("3 1\n2 0 1\n"))  # color out of range

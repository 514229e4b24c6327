"""Color-avoiding partition tests: hand examples, the brute-force oracle, and
exact rational bookkeeping."""

import gc
import io
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caperc import cap, graph
from caperc.cap import CapDecomposition, _meet, color_avoiding_partition
from caperc.graph import EdgeColoredGraph, connected_components, sample_ecer
from oracles import brute_force_cap_partition, color_avoiding_partition_by_sort
from test_graph import colored_graphs, ecer_graphs


def _meet_from_zero_key(g):
    """The meet as computed before it started from the first color: one
    renumbering per color, from an all-zero key. Test oracle only."""
    n = g.n
    key = np.zeros(n, dtype=np.int64)
    for i in range(g.k):
        others = [g.color_edges(c) for c in range(g.k) if c != i]
        edges = np.concatenate(others) if others else np.empty((0, 2), int)
        col = connected_components(n, edges)
        _, first, key = np.unique(key * n + col, return_index=True,
                                  return_inverse=True)
    return first[key]


def test_triangle_example():
    # red edges 0-1 and 0-2, blue edge 1-2: removing red isolates vertex 0,
    # so only 1 and 2 are mutually color-avoiding connected
    g = EdgeColoredGraph(3, [[(0, 1), (0, 2)], [(1, 2)]])
    assert color_avoiding_partition(g).tolist() == [0, 1, 1]


def test_single_color_graph_is_all_singletons():
    # with k = 1 the only avoidance set removes every edge
    g = EdgeColoredGraph(4, [[(0, 1), (1, 2), (2, 3)]])
    assert color_avoiding_partition(g).tolist() == [0, 1, 2, 3]


def test_one_colored_edge_does_not_connect():
    g = EdgeColoredGraph(2, [[(0, 1)], []])
    assert color_avoiding_partition(g).tolist() == [0, 1]


def test_doubly_colored_pair_connects():
    g = EdgeColoredGraph(2, [[(0, 1)], [(0, 1)]])
    assert color_avoiding_partition(g).tolist() == [0, 0]


def test_edgeless_graph():
    g = EdgeColoredGraph(5, [[], []])
    assert color_avoiding_partition(g).tolist() == [0, 1, 2, 3, 4]


def test_brute_force_size_limit():
    g = EdgeColoredGraph(13, [[], []])
    with pytest.raises(ValueError):
        brute_force_cap_partition(g)


def test_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        g = sample_ecer(n, tuple([2.0] * k), rng)
        fast = color_avoiding_partition(g)
        slow = brute_force_cap_partition(g)
        assert np.array_equal(fast, slow)


def test_edgeless_colors_agree_with_brute_force():
    # graphs with no edges at all, and graphs with one color's edges: the
    # meet skips the edgeless colors, so it takes one projection or none
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(0, 9))
        k = int(rng.integers(1, 5))
        edge_lists = [[] for _ in range(k)]
        g = EdgeColoredGraph(n, edge_lists)
        assert np.array_equal(color_avoiding_partition(g),
                              brute_force_cap_partition(g))
        if n >= 2:
            edge_lists[int(rng.integers(k))] = sample_ecer(
                n, (3.0,), rng).color_edges(0)
            g = EdgeColoredGraph(n, edge_lists)
            assert np.array_equal(color_avoiding_partition(g),
                                  brute_force_cap_partition(g))


def test_meet_matches_zero_key_oracle():
    for g in ecer_graphs():
        labels = color_avoiding_partition(g)
        assert labels.dtype == graph._vertex_dtype(g.n)
        assert np.array_equal(labels, _meet_from_zero_key(g))


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.0, 1.0), (0.5, 0.5),
                                 (1.5, 0.5), (0.9, 0.8, 0.7), (0.5,) * 4])
def test_meet_matches_full_sort_oracle(lam):
    # the regimes leave from about 2% (at (2,2)) to about 26% (at (1,1)) of
    # the vertices of a meet to its sort; from about n = 2^16 the sort keys
    # labels * n + col pass int32, as at n = 7e4
    rng = np.random.default_rng(31)
    for n in (2, 300, 2000, 20000) + ((70000,) if lam == (1.0, 1.0) else ()):
        g = sample_ecer(n, lam, rng)
        assert np.array_equal(color_avoiding_partition(g),
                              color_avoiding_partition_by_sort(g))


def test_meet_sorts_the_blocks_neither_root_settles():
    # blocks {0,1},{2,3} against {0,2},{1,3}: vertex 3's label 2 lies in
    # col block {0,2}, and its col root 1 in label block {0,1}
    labels = np.array([0, 0, 2, 2], dtype=np.int64)
    col = np.array([0, 1, 0, 1], dtype=np.int64)
    assert _meet(labels, col).tolist() == [0, 1, 2, 3]
    assert _meet(col, labels).tolist() == [0, 1, 2, 3]
    # and a block of two that neither root settles: {3,4} has label 0,
    # whose col block is {0,2}, and col root 1, whose label block is {1,2}
    labels = np.array([0, 1, 1, 0, 0], dtype=np.int64)
    col = np.array([0, 1, 0, 1, 1], dtype=np.int64)
    assert _meet(labels, col).tolist() == [0, 1, 2, 3, 3]
    # at n = 7e4, int32 labels with two unsettled singletons, 4 and 61359,
    # whose keys (label, col) are (2, 1) and (61358, 47297): 61356 n + 47296
    # = 2^32, so keys labels * n + col computed in int32 would merge them
    n = 70000
    labels = np.arange(n, dtype=np.int32)
    col = labels.copy()
    for x, y, z, w in ((0, 1, 2, 4), (3, 47297, 61358, 61359)):
        labels[[y, w]] = x, z  # blocks {x, y} and {z, w}
        col[[z, w]] = x, y     # blocks {x, z} and {y, w}
    assert np.array_equal(_meet(labels, col), np.arange(n))


@st.composite
def min_vertex_labelings(draw, n):
    """labels[v] = the least vertex with v's (drawn) block id."""
    blocks = draw(st.integers(1, max(n, 1)))
    ids = draw(st.lists(st.integers(1, blocks), min_size=n, max_size=n))
    return np.array([ids.index(b) for b in ids], dtype=np.int64)


@given(st.integers(0, 40).flatmap(
    lambda n: st.tuples(min_vertex_labelings(n), min_vertex_labelings(n))))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_meet_of_two_labelings_matches_grouping(pair):
    labels, col = pair
    want = [min(w for w in range(labels.size)
                if labels[w] == labels[v] and col[w] == col[v])
            for v in range(labels.size)]
    assert _meet(labels, col).tolist() == want


@given(colored_graphs())
@settings(max_examples=60, deadline=None)
def test_meet_refines_every_color_avoiding_partition(g):
    # each vertex shares its per-color component with its block's label
    labels = color_avoiding_partition(g)
    assert np.array_equal(labels, brute_force_cap_partition(g))
    for i in range(g.k):
        others = [g.color_edges(c) for c in range(g.k) if c != i]
        coarse = connected_components(g.n, np.concatenate(others))
        assert np.array_equal(coarse[labels], coarse)


def test_decomposition_exact_normalization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = sample_ecer(50, (1.5, 1.5), rng)
        dec = CapDecomposition.from_graph(g)
        assert sum(dec.size_histogram.values()) == Fraction(1)
        assert sum(s * c for s, c in dec.size_counts.items()) == g.n


def test_decomposition_fields():
    g = EdgeColoredGraph(3, [[(0, 1), (0, 2)], [(1, 2)]])
    dec = CapDecomposition.from_graph(g)
    assert dec.max_fraction == Fraction(2, 3)
    assert dec.component_size_density(1) == Fraction(1, 3)
    assert dec.component_size_density(2) == Fraction(2, 3)
    assert dec.component_size_density(3) == Fraction(0)
    assert dec.component_size_density(4) == Fraction(0)
    with pytest.raises(ValueError):
        dec.component_size_density(0)


def test_csv_output():
    g = EdgeColoredGraph(3, [[(0, 1), (0, 2)], [(1, 2)]])
    dec = CapDecomposition.from_graph(g)
    buf = io.StringIO()
    dec.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# schema: cap-sizes-v1"
    assert lines[1] == "size,fraction,count"
    assert lines[2].startswith("1,") and lines[3].startswith("2,")
    sizes = {int(line.split(",")[0]): (float(line.split(",")[1]),
                                       int(line.split(",")[2]))
             for line in lines[2:]}
    assert sizes[1] == (pytest.approx(1 / 3), 1)
    assert sizes[2] == (pytest.approx(2 / 3), 1)


def test_decomposition_copies_no_edges():
    # each projection is two views of the graph's own edge table, so a
    # decomposition at n = 2e5, lambda = (2, 2), whose graph holds 3.2 MB of
    # int32 edges, peaks at 3.13 n 8-byte words (5.0 MB, in each of eight
    # runs) with its two projections run at once on two threads; with int64
    # vertex ids it peaked at 4.6-5.0 n, by how the two projections' peaks
    # overlapped, and copying the edges for each projection and np.unique's
    # meet took it to 11.7 n
    n = 200_000
    g = sample_ecer(n, (2.0, 2.0), np.random.default_rng(1))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        CapDecomposition.from_graph(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n


@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.9, 0.8, 0.7),
                                 (0.6, 0.5, 0.4, 0.3, 0.2)])
def test_helper_thread_changes_no_byte(monkeypatch, lam):
    # above the size rule, with the helper thread off and then on: the same
    # edge table, partition labels and generator end state
    n = graph._PAIR_MIN_N
    calls = []

    def spied(*args):
        calls.append(threading.current_thread() is threading.main_thread())
        return connected_components(*args)

    monkeypatch.setattr(cap, "connected_components", spied)
    runs = []
    for on in (False, True):
        monkeypatch.setattr(graph, "_use_helper", lambda n, on=on: on)
        calls.clear()
        rng = np.random.default_rng(41)
        g = sample_ecer(n, lam, rng)
        labels = color_avoiding_partition(g)
        # one projection per color, the odd ones on the helper when it is on
        assert len(calls) == len(lam)
        assert calls.count(False) == (len(lam) // 2 if on else 0)
        runs.append((g.edges, labels, rng.bit_generator.state,
                     rng.bit_generator.seed_seq.n_children_spawned))
    (e0, l0, s0, c0), (e1, l1, s1, c1) = runs
    assert np.array_equal(e0, e1)
    assert np.array_equal(l0, l1)
    assert (s0, c0) == (s1, c1)


def test_callers_on_several_threads_share_the_helper(monkeypatch):
    # more callers than cores hand their odd colors to the one helper, with
    # a short switch interval: each gets the inline edges and labels
    lams = [(2.0, 2.0), (0.9, 0.8, 0.7), (0.6, 0.5, 0.4, 0.3, 0.2)]

    def decompose(lam, seed):
        g = sample_ecer(3000, lam, np.random.default_rng(seed))
        return g.edges, color_avoiding_partition(g)

    monkeypatch.setattr(graph, "_use_helper", lambda n: False)
    want = [decompose(lam, seed) for seed, lam in enumerate(lams)]
    monkeypatch.setattr(graph, "_use_helper", lambda n: True)
    got = [None] * len(lams)

    def run(i):
        for _ in range(5):
            got[i] = decompose(lams[i], i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(lams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (e0, l0), (e1, l1) in zip(want, got):
        assert np.array_equal(e0, e1) and np.array_equal(l0, l1)

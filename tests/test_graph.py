"""Graph container, ECER sampling, color unions, and connectivity tests."""

import io
import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caperc import graph
from caperc.graph import (
    _CHUNK,
    MAX_N,
    EdgeColoredGraph,
    _geometric,
    _pair_index_to_edge,
    _pairwise_map,
    _sample_pair_subset,
    _vertex_dtype,
    connected_components,
    dump_graph,
    load_graph,
    sample_ecer,
)


# -- construction and canonicalization --------------------------------------

def test_edges_are_canonicalized():
    g = EdgeColoredGraph(4, [[(3, 1), (0, 2)], []])
    assert g.color_edges(0).tolist() == [[0, 2], [1, 3]]
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


def _sorted_canonical_edges(edges, n, color):
    """Canonicalization by sorting every input, as before the already-sorted
    shortcut: the oracle for the graph's table check and its error messages,
    color by color."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"color {color}: edge list must be pairs")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"color {color}: endpoint out of range")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(lo == hi):
        raise ValueError(f"color {color}: self-loop")
    arr = np.stack([lo, hi], axis=1)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        raise ValueError(f"color {color}: duplicate edge within one color")
    return arr[order]


def _table_edges(edges, n, color):
    """One color's edges through the graph's table check, on the graph in
    which color `color` has them and every lower color has none."""
    return EdgeColoredGraph(n, [[]] * color + [edges]).color_edges(color)


def _error_or_edges(fn, edges, n, color=2):
    try:
        return fn(edges, n, color).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 12))
def test_canonical_edges_matches_sorting_oracle(data, n):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=12))
    canonical = sorted(edges)
    shuffled = data.draw(st.permutations(canonical))
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v)
               for u, v in shuffled]
    for variant in (canonical, canonical[::-1], shuffled, flipped):
        arr = np.array(variant, dtype=np.int64).reshape(-1, 2)
        got = _table_edges(arr, n, 2)
        assert got.dtype == _vertex_dtype(n)
        assert got.tolist() == [list(e) for e in canonical]
    # a self-loop or a repeat inside otherwise sorted input must fail as the
    # sorting path fails, so the sorted-input check may not let it through
    if canonical:
        i = data.draw(st.integers(0, len(canonical) - 1))
        u, v = canonical[i]
        bad_inputs = [canonical[:i] + [(u, u)] + canonical[i:],
                      canonical[:i + 1] + [(u, v)] + canonical[i + 1:],
                      canonical[:i + 1] + [(v, u)] + canonical[i + 1:],
                      canonical[:i] + [(u, n)] + canonical[i:]]
        for bad in bad_inputs:
            arr = np.array(bad, dtype=np.int64)
            want = _error_or_edges(_sorted_canonical_edges, arr, n)
            assert isinstance(want, str)
            assert _error_or_edges(_table_edges, arr, n) == want


def _variant(data, canonical):
    """canonical's rows as given, reversed, shuffled, or shuffled with
    either endpoint first."""
    how = data.draw(st.integers(0, 3))
    if how < 2:
        return canonical[::-1] if how else canonical
    shuffled = data.draw(st.permutations(canonical))
    if how == 2:
        return shuffled
    return [(v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in shuffled]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), k=st.integers(2, 5))
def test_table_check_matches_sorting_oracle_color_by_color(data, n, k):
    # the whole table is checked and sorted at once, so each color's rows
    # must still be the oracle's, whatever the order of the other colors'
    pairs = list(itertools.combinations(range(n), 2))
    canonical = [sorted(data.draw(st.lists(st.sampled_from(pairs),
                                           unique=True, max_size=6)))
                 for _ in range(k)]
    inputs = [np.array(_variant(data, rows), dtype=np.int64).reshape(-1, 2)
              for rows in canonical]
    g = EdgeColoredGraph(n, inputs)
    for c in range(k):
        assert g.color_edges(c).tolist() == [list(e) for e in canonical[c]]
        assert (g.color_edges(c).tolist()
                == _sorted_canonical_edges(inputs[c], n, c).tolist())
    # one faulty color, the others valid in any order: the oracle's text
    f = data.draw(st.integers(0, k - 1))
    rows = [tuple(e) for e in inputs[f].tolist()]
    w = data.draw(st.integers(0, n - 1))
    bad_rows = [(w, w), (w, n), (-1, w)]
    if rows:
        u, v = data.draw(st.sampled_from(rows))
        bad_rows += [(u, v), (v, u)]
    i = data.draw(st.integers(0, len(rows)))
    bad = rows[:i] + [data.draw(st.sampled_from(bad_rows))] + rows[i:]
    inputs[f] = np.array(bad, dtype=np.int64)
    want = _error_or_edges(_sorted_canonical_edges, inputs[f], n, f)
    assert isinstance(want, str)
    with pytest.raises(ValueError) as exc:
        EdgeColoredGraph(n, inputs)
    assert str(exc.value) == want


def test_edge_arrays_are_owned_and_read_only():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)  # already canonical
    g = EdgeColoredGraph(3, [edges, [(2, 0)]])
    edges[0, 0] = 2
    assert g.color_edges(0).tolist() == [[0, 1], [1, 2]]
    for c in range(g.k):
        with pytest.raises(ValueError):
            g.color_edges(c)[0, 0] = 5
    sampled = sample_ecer(50, (2.0, 2.0), np.random.default_rng(3))
    assert not sampled.edges.flags.writeable


def test_sampled_and_loaded_edge_arrays_are_owned_and_read_only():
    # every path builds the table it keeps, so the table must be the graph's
    # alone: the owner of its data, never a view; every path, the
    # constructor's canonical and sorting ones too, stores it column-major,
    # so the u and v columns are contiguous, and each color's view of it is
    # read-only as well
    g = sample_ecer(2000, (1.0, 2.0, 0.5), np.random.default_rng(3))
    buf = io.StringIO()
    dump_graph(g, buf)
    loaded = load_graph(io.StringIO(buf.getvalue()))
    rows = g.color_edges(1).tolist()
    shuffled = np.random.default_rng(4).permutation(rows)
    canonical = EdgeColoredGraph(g.n, [np.array(rows), rows])
    sorted_ = EdgeColoredGraph(g.n, [rows[::-1], shuffled])
    for built in (canonical, sorted_):
        assert all(built.color_edges(c).tolist() == rows for c in range(2))
    for graph in (g, loaded, canonical, sorted_):
        e = graph.edges
        assert e.flags.owndata and e.base is None
        assert e.flags.f_contiguous and not e.flags.writeable
        with pytest.raises(ValueError):
            e[0, 0] = 5
        for c in range(graph.k):
            view = graph.color_edges(c)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 5


def test_same_pair_in_two_colors_is_allowed():
    g = EdgeColoredGraph(2, [[(0, 1)], [(0, 1)]])
    assert g.edge_count(0) == 1 and g.edge_count(1) == 1


# -- pair index decoding ----------------------------------------------------

def _decode(idx, n, dtype=np.int64):
    return _pair_index_to_edge(
        idx, n, np.empty((idx.size, 2), dtype=dtype, order="F"))


@pytest.mark.parametrize("n", [2, 3, 5, 13, 40])
def test_pair_decode_exhaustive(n):
    expected = list(itertools.combinations(range(n), 2))
    idx = np.arange(len(expected), dtype=np.int64)
    edges = _decode(idx, n)
    assert edges.dtype == np.int64 and edges.shape == (len(expected), 2)
    assert [tuple(e) for e in edges.tolist()] == expected


def test_pair_decode_at_large_n():
    # rows u = 0, 1, n - 2 and the ends of the last rows, where the
    # triangular-root formula rounds
    n = 2 * 10**9
    offset = [u * (2 * n - u - 1) // 2 for u in (0, 1, 2, n - 3, n - 2)]
    idx = np.array([0, n - 2, offset[1], offset[2] - 1, offset[2],
                    offset[3], offset[3] + 1, offset[4]], dtype=np.int64)
    want = [(0, 1), (0, n - 1), (1, 2), (1, n - 1), (2, 3),
            (n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)]
    # and into a table of the graph's vertex dtype, int32 here, though
    # 2n - 1 and the offsets are past int32
    assert _vertex_dtype(n) == np.int32
    for dtype in (np.int64, np.int32):
        assert [tuple(e) for e in _decode(idx, n, dtype).tolist()] == want


@pytest.mark.parametrize("n, dtype", [(2**31, np.int32),
                                      (2**31 + 1, np.int64)])
def test_sampled_tables_cross_the_vertex_dtype_switch(n, dtype):
    # the most vertices with int32 ids and the fewest with int64: at both,
    # 2n - 1, the decode's offsets and the table check's keys u * n + v are
    # past int32, and the edges must be an int64 decode of the same draws
    lam = (1e-8, 1e-8)  # about 11 edges a color
    g = sample_ecer(n, lam, np.random.default_rng(0))
    assert _vertex_dtype(n) == dtype and g.edges.dtype == dtype
    assert g.edges.size
    total = n * (n - 1) // 2
    for c, crng in enumerate(np.random.default_rng(0).spawn(len(lam))):
        idx = _sample_pair_subset(total, float(-np.expm1(-lam[c] / n)), crng)
        assert g.color_edges(c).tolist() == _decode(idx, n).tolist()


def test_pair_subset_skipping_statistics():
    rng = np.random.default_rng(5)
    total, p, reps = 5000, 0.02, 200
    counts = [len(_sample_pair_subset(total, p, rng)) for _ in range(reps)]
    mean = total * p
    se = np.sqrt(total * p * (1 - p) / reps)
    assert abs(np.mean(counts) - mean) < 3.5 * se
    idx = _sample_pair_subset(total, p, rng)
    assert np.all(np.diff(idx) > 0) and idx.max() < total


def _sample_pair_subset_by_concatenation(total, p, rng):
    """Geometric skipping that concatenates every chunk and masks the tail,
    as before the chunks were built in place: the oracle for
    `_sample_pair_subset` wherever its sums stay inside int64."""
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = -1
    expect = int(total * p) + 1
    while pos < total:
        m = max(256, int(1.2 * (expect - sum(len(c) for c in chunks))) + 64)
        gaps = rng.geometric(p, size=m).astype(np.int64)
        pts = pos + np.cumsum(gaps)
        chunks.append(pts)
        pos = int(pts[-1])
    idx = np.concatenate(chunks)
    return idx[idx < total]


@pytest.mark.parametrize("total, p", [
    (1, 0.5), (10, 0.05), (1000, 0.3), (1000, 0.9), (10**6, 1e-3),
    (10**6, 2e-6), (10**12, 1e-9), (10**12, 1e-7),
    # skips near 10^16: a chunk's sums could pass int64, but do not
    (5 * 10**17, 1e-16),
])
def test_pair_subset_matches_concatenating_oracle(total, p):
    for seed in range(3):
        got = _sample_pair_subset(total, p, np.random.default_rng(seed))
        want = _sample_pair_subset_by_concatenation(
            total, p, np.random.default_rng(seed))
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("p", [1e-16, 1e-9, 1e-5, 1e-2, 0.2, 0.3333])
def test_geometric_inversion_is_numpys_geometric(p):
    # below p = 1/3 numpy's geometric inverts one exponential draw per skip;
    # _geometric must give its values and leave the generator where it does,
    # or every sampled ECER graph changes
    for seed in range(5):
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _geometric(p, 10**5, mine)
        want = ref.geometric(p, size=10**5)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n, lam", [(10**5, (1e-12, 1e-12)),
                                    (10**9, (1e-300,)),
                                    (10, (1e-300, 1e-300))])
def test_tiny_edge_probability_gives_no_edges(n, lam):
    # skips this long once summed past int64 and the sampler never ended;
    # their inversion overflows to infinity, which must pass silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = sample_ecer(n, lam, np.random.default_rng(2))
    assert g.n == n and all(g.edge_count(c) == 0 for c in range(g.k))


# -- ECER sampling ----------------------------------------------------------

def test_ecer_edge_counts_match_binomial_oracle():
    n, reps = 2000, 200
    lam = (0.9, 1.3)
    rng = np.random.default_rng(11)
    totals = np.zeros(2)
    for _ in range(reps):
        g = sample_ecer(n, lam, rng)
        for c in range(2):
            totals[c] += g.edge_count(c)
    pairs = n * (n - 1) // 2
    for c in range(2):
        p = -np.expm1(-lam[c] / n)
        mean = reps * pairs * p
        se = np.sqrt(reps * pairs * p * (1 - p))
        assert abs(totals[c] - mean) < 3.5 * se


@pytest.mark.parametrize("rows", [[(3 * 10**9, 3 * 10**9 + 1), (1, 2)],
                                  [(1, 2), (3 * 10**9, 3 * 10**9 + 1)]])
def test_vertex_counts_whose_pair_keys_overflow_are_rejected(rows):
    # the key u * n + v of the first pair wraps past int64 at n = 4e9, which
    # left both orders of these rows out of order
    with pytest.raises(ValueError, match="vertex count"):
        EdgeColoredGraph(4 * 10**9, [rows])
    with pytest.raises(ValueError, match="vertex count"):
        EdgeColoredGraph(MAX_N + 1, [rows])
    top = [[MAX_N - 2, MAX_N - 1], [0, 1]]
    g = EdgeColoredGraph(MAX_N, [top, top[::-1]])
    assert g.color_edges(0).tolist() == g.color_edges(1).tolist() == top[::-1]
    with pytest.raises(ValueError, match="vertex count"):
        sample_ecer(4 * 10**9, (1.0, 1.0),
                    np.random.default_rng(0))


@pytest.mark.parametrize("row", [(0, 2**32 + 1), (1, 2**32 + 1),
                                 (2**32 + 1, 3)])
def test_endpoints_are_checked_before_the_table_narrows(row):
    # 2^32 + 1 is 1 in int32, so a table narrowed before its checks would
    # keep the pair (0, 1) or (1, 3), or report a self-loop
    want = "^color 1: endpoint out of range$"
    with pytest.raises(ValueError, match=want):
        EdgeColoredGraph(5, [[(0, 1)], np.array([row], dtype=np.int64)])
    with pytest.raises(ValueError, match=want):
        load_graph(io.StringIO(f"5 2\n1 {row[0]} {row[1]}\n0 0 1\n"))


def test_ecer_vertex_count_validation():
    rng = np.random.default_rng(0)
    # the edge probability 1 - exp(-lambda_i / n) needs a vertex
    for n in (0, -1):
        with pytest.raises(ValueError, match="vertex count"):
            sample_ecer(n, (1.0, 1.0), rng)
    g = sample_ecer(50, (1.0, 1.0), rng)
    assert g.n == 50


def test_ecer_deterministic_given_seed():
    a = sample_ecer(500, (1.5, 0.5), np.random.default_rng(123))
    b = sample_ecer(500, (1.5, 0.5), np.random.default_rng(123))
    for c in range(2):
        assert np.array_equal(a.color_edges(c), b.color_edges(c))


# -- color unions -----------------------------------------------------------

def test_project_union_matches_er_oracle():
    # the union of independent colors I is itself an ER graph whose edge
    # probability uses the summed intensity over I
    n, reps = 1000, 200
    lam = (0.7, 0.5)
    rng = np.random.default_rng(21)
    total = 0
    for _ in range(reps):
        g = sample_ecer(n, lam, rng)
        # a pair drawn in both colors is one edge of the union
        union = np.unique(g.edges, axis=0)
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
    edge_lists = []
    for _ in range(k):
        subset = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
        edge_lists.append(subset)
    return EdgeColoredGraph(n, edge_lists)


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


def _connected_components_regather(n, edges):
    """Min-label hooking that re-reads the labels at the original endpoints
    every round, as before the hooking rounds were contracted: the oracle
    for `connected_components`."""
    labels = np.arange(n, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        lu, lv = labels[u], labels[v]
        live = lu != lv
        if not live.any():
            return labels
        u, v, lu, lv = u[live], v[live], lu[live], lv[live]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def ecer_graphs():
    """Sampled graphs with k = 1..4 colors at small and large n."""
    rng = np.random.default_rng(29)
    for k in range(1, 5):
        for n in (1, 2, 1000, 20000):
            yield sample_ecer(n, tuple(rng.uniform(0.5, 2.5, k)), rng)


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
        assert labels.dtype == _vertex_dtype(n)
        assert labels.tolist() == _bfs_components(n, edges)


def test_connected_components_edge_cases():
    assert connected_components(0, _edge_array([])).tolist() == []
    assert connected_components(3, []).tolist() == [0, 1, 2]
    loops = _edge_array([(2, 2), (0, 0), (2, 1)])
    assert connected_components(3, loops).tolist() == [0, 1, 1]
    assert connected_components(4, _edge_array([])).tolist() == [0, 1, 2, 3]
    duplicates = _edge_array([(3, 4), (4, 3), (3, 4), (1, 4)])
    assert connected_components(5, duplicates).tolist() == [0, 1, 2, 1, 1]
    # 9 hooks onto 1, not 5, so 5 joins them only in a second round
    labels = connected_components(10, _edge_array([(5, 9), (9, 1)]))
    assert labels.tolist() == [0, 1, 2, 3, 4, 1, 6, 7, 8, 1]
    path = [(v + 1, v) for v in range(30, -1, -1)]
    assert connected_components(32, _edge_array(path)).tolist() == [0] * 32


def test_connected_components_matches_regather_oracle():
    empty = np.empty((0, 2), dtype=np.int64)
    for g in ecer_graphs():
        # all colors, then each color left out in turn
        colors = [g.color_edges(c) for c in range(g.k)]
        unions = [colors]
        if g.k > 1:
            unions += [colors[:i] + colors[i + 1:] for i in range(g.k)]
        for parts in unions:
            edges = np.concatenate(parts)
            want = _connected_components_regather(g.n, edges)
            # one array, a list of one, the union's colors as a list, and
            # that list with an empty array in it
            for arg in (edges, [edges], parts, [parts[0], empty, *parts[1:]]):
                assert np.array_equal(connected_components(g.n, arg), want)
    # at n = 3 chunks + 5, the jumps and the compaction cross chunk
    # boundaries
    for n in (5000, 3 * _CHUNK + 5):
        perm = np.random.default_rng(4).permutation(n)
        path = np.stack([perm[:-1], perm[1:]], axis=1)
        star = np.stack([np.full(n - 1, n - 1), np.arange(n - 1)], axis=1)
        for edges in (path, path[::-1], star, star[:, ::-1]):
            labels = connected_components(n, edges)
            assert np.array_equal(labels,
                                  _connected_components_regather(n, edges))
            assert not labels.any()


def test_pairwise_map_keeps_item_order_and_raises(monkeypatch):
    monkeypatch.setattr(graph, "_use_helper", lambda n: True)
    ran = []

    def square(x):
        ran.append((x, threading.current_thread() is threading.main_thread()))
        if x in fail:
            raise ValueError(f"item {x}")
        return x * x

    fail = ()
    assert _pairwise_map(square, range(5), 0) == [0, 1, 4, 9, 16]
    # the caller runs the even items, the helper the odd ones
    assert sorted(ran) == [(x, x % 2 == 0) for x in range(5)]
    for fail in ((3,), (2,)):  # a helper's item, then a caller's
        with pytest.raises(ValueError, match=f"item {fail[0]}"):
            _pairwise_map(square, range(5), 0)


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
        assert np.array_equal(g.color_edges(c), g2.color_edges(c))


def test_dump_text_matches_per_row_format():
    g = sample_ecer(3000, (1.0, 2.0, 0.5), np.random.default_rng(8))
    buf = io.StringIO()
    dump_graph(g, buf)
    rows = [f"{g.n} {g.k}\n"]
    for c in range(g.k):
        for u, v in g.color_edges(c):
            rows.append(f"{c} {u} {v}\n")
    assert buf.getvalue() == "".join(rows)


def load_graph_by_line(fh):
    """The per-line loader that load_graph replaced, kept as its oracle."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("bad graph header, expected 'n k'")
    n, k = int(header[0]), int(header[1])
    edge_lists = [[] for _ in range(k)]
    for line in fh:
        line = line.strip()
        if not line:
            continue
        c, u, v = (int(x) for x in line.split())
        if not 0 <= c < k:
            raise ValueError(f"color {c} out of range")
        edge_lists[c].append((u, v))
    return EdgeColoredGraph(n, edge_lists)


@pytest.mark.parametrize("text", [
    "4 2\n",                                  # no edges
    "4 2\n\n1 2 3\n  \n0 0 1\n\n",            # blank lines, colors mixed
    "4 3\n2 3 1\n0 1 0\n2 0 2\n1 3 2\n0 2 1\n",  # any order, either orient
    "5 1\n0\t1 4\n 0 0 3 \n",                 # any whitespace
    "+5 02\n1 4 0\n",                         # signs and leading zeros
    # colors interleaved and out of order, each color's rows in any order
    "6 4\n3 4 5\n1 2 3\n3 0 1\n0 1 2\n1 5 0\n3 2 3\n2 1 4\n0 0 3\n",
    # a wide header with a few edges: most colors have none
    "10 5000\n4999 0 1\n17 3 2\n4999 5 4\n0 8 9\n17 1 2\n",
])
def test_load_matches_per_line_loader(text):
    g, want = (load(io.StringIO(text)) for load in (load_graph,
                                                    load_graph_by_line))
    assert (g.n, g.k) == (want.n, want.k)
    for c in range(g.k):
        assert np.array_equal(g.color_edges(c), want.color_edges(c))


def test_load_rejects_bad_input():
    with pytest.raises(ValueError):
        load_graph(io.StringIO("3\n"))
    with pytest.raises(ValueError):
        load_graph(io.StringIO("3 1\n2 0 1\n"))  # color out of range


def test_loading_a_wide_header_keeps_nothing_per_color():
    # a graph holds nothing for a color without edges, so the header's k
    # costs no memory: this dump took 393 MB when each color had an array
    tracemalloc.start()
    try:
        g = load_graph(io.StringIO("3 1000000\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.k, g.colors, g.edges.shape) == (3, 10**6, (), (0, 2))
    assert peak < 10**6

"""Local ball canonicalization and restricted total-variation tests."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from caperc.graph import EdgeColoredGraph, sample_ecer
from caperc.localweak import (
    ISOLATED_ROOT_KEY,
    SIZE_CAP,
    _canon_ball,
    _ecer_adjacency,
    _tree_ball,
    ecbp_ball_counts,
    ecer_ball_counts,
    restricted_tv,
)
from oracles import tree_ball_counts


def _adj(g):
    return _ecer_adjacency(g)


def test_isolated_root_key():
    g = EdgeColoredGraph(3, [[], []])
    counts, out = ecer_ball_counts(g, 1)
    assert out == 0
    assert counts == Counter({ISOLATED_ROOT_KEY: 3})


def test_star_key():
    g = EdgeColoredGraph(3, [[(0, 1)], [(0, 2)]])
    key = _canon_ball(_adj(g), 0, 1, 30)
    assert key == ((0b01, ()), (0b10, ()))


def test_multicolor_edge_merges_to_one_mask():
    g = EdgeColoredGraph(2, [[(0, 1)], [(0, 1)]])
    key = _canon_ball(_adj(g), 0, 1, 30)
    assert key == ((0b11, ()),)


def test_depth_two_path_key():
    g = EdgeColoredGraph(3, [[(0, 1)], [(1, 2)]])
    assert _canon_ball(_adj(g), 0, 2, 30) == ((0b01, ((0b10, ()),)),)
    # at depth 1 the grandchild is invisible
    assert _canon_ball(_adj(g), 0, 1, 30) == ((0b01, ()),)


def test_key_is_order_invariant():
    a = EdgeColoredGraph(3, [[(0, 1)], [(0, 2)]])
    b = EdgeColoredGraph(3, [[(0, 2)], [(0, 1)]])
    assert _canon_ball(_adj(a), 0, 1, 30) == _canon_ball(_adj(b), 0, 1, 30)


def test_cycle_is_out_of_catalog():
    tri = EdgeColoredGraph(3, [[(0, 1), (1, 2), (0, 2)], []])
    assert _canon_ball(_adj(tri), 0, 1, 30) is None
    counts, out = ecer_ball_counts(tri, 1)
    assert out == 3 and not counts
    # a same-depth chord between two depth-1 vertices also breaks treeness
    square = EdgeColoredGraph(4, [[(0, 1), (0, 2), (1, 2), (1, 3)]], )
    assert _canon_ball(_adj(square), 0, 1, 30) is None


def test_size_cap():
    g = EdgeColoredGraph(5, [[(0, 1), (0, 2), (0, 3), (0, 4)], []])
    assert _canon_ball(_adj(g), 0, 1, 3) is None
    assert _canon_ball(_adj(g), 0, 1, 5) is not None


def test_ecbp_counts_total():
    rng = np.random.default_rng(2)
    counts, out = ecbp_ball_counts((1.0, 1.0), 1, 5000, rng)
    assert sum(counts.values()) + out == 5000


class _FixedCounts:
    """A generator stand-in whose Poisson draws are the given counts; a
    draw past them raises StopIteration."""

    def __init__(self, counts):
        self.counts = iter(counts)

    def poisson(self, lam):
        return next(self.counts)


def test_tree_ball_size_cap():
    # a ball of SIZE_CAP vertices is in the catalog, as in _canon_ball; one
    # more is not, and no draw follows the one that passes the cap
    key = _tree_ball((1.0, 1.0), 1, _FixedCounts([SIZE_CAP - 2, 1]))
    assert key == ((0b01, ()),) * (SIZE_CAP - 2) + ((0b10, ()),)
    assert _tree_ball((1.0, 1.0), 1, _FixedCounts([SIZE_CAP - 1, 1])) is None
    assert _tree_ball((1.0, 1.0), 2, _FixedCounts([SIZE_CAP])) is None


@pytest.mark.parametrize("d", [1, 2])
def test_tree_ball_keys_match_the_arena_on_the_same_draws(d):
    # no ball passes SIZE_CAP here, so the keys drawn level by level and
    # the arena trees read the same Poisson draws in the same order
    counts, out = ecbp_ball_counts((0.5, 0.5), d, 20000,
                                   np.random.default_rng(41))
    assert out == 0
    assert (counts, out) == tree_ball_counts((0.5, 0.5), d, 20000,
                                             np.random.default_rng(41))


def test_tree_ball_law_matches_the_arena():
    # at (1.5, 1.5) some balls pass SIZE_CAP, after which the draws part;
    # the key law, out-of-catalog bin included, must still agree
    samples = 20000
    drawn, drawn_out = ecbp_ball_counts((1.5, 1.5), 2, samples,
                                        np.random.default_rng(43))
    arena, arena_out = tree_ball_counts((1.5, 1.5), 2, samples,
                                        np.random.default_rng(44))
    common = [key for key in set(drawn) | set(arena)
              if drawn[key] + arena[key] >= 20]
    rows = [[c[key] for key in common] for c in (drawn, arena)]
    for row, out in zip(rows, (drawn_out, arena_out)):
        row += [out, samples - out - sum(row)]
    assert len(common) >= 30
    _, pvalue, _, _ = scipy.stats.chi2_contingency(rows)
    assert pvalue > 1e-3


def test_restricted_tv_edges():
    p = Counter({"a": 5, "b": 5})
    assert restricted_tv(p, 10, p, 10) == 0.0
    q = Counter({"c": 10})
    assert restricted_tv(p, 10, q, 10) == 1.0
    with pytest.raises(ValueError):
        restricted_tv(Counter(), 0, p, 10)


def test_ecer_balls_approach_tree_balls():
    # small-scale version of the convergence check: the depth-1 ball laws of
    # a sparse colored random graph and of the branching process are close
    lam = (1.0, 1.0)
    n, reps = 800, 3
    rng = np.random.default_rng(3)
    ecer = Counter()
    for _ in range(reps):
        g = sample_ecer(n, lam, rng)
        counts, _ = ecer_ball_counts(g, 1)
        ecer.update(counts)
    ecbp, _ = ecbp_ball_counts(lam, 1, 20000, rng)
    tv = restricted_tv(ecer, reps * n, ecbp, 20000)
    assert tv < 0.05
    # isolated roots appear with probability exp(-lambda_total) in the limit
    iso = ecer[ISOLATED_ROOT_KEY] / (reps * n)
    target = math.exp(-2.0)
    se = math.sqrt(target * (1 - target) / (reps * n))
    assert abs(iso - target) < 4.0 * se

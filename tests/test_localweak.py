"""Local ball canonicalization and restricted total-variation tests."""

import itertools
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
    ball_probability,
    ecer_ball_counts,
    restricted_tv,
)
from caperc.params import LambdaVector
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


def test_isolated_root_probability_is_exp_minus_lambda_uc():
    lam = (1.0, 2.5, 0.3)
    assert ball_probability(lam, (), 1) == math.exp(
        -LambdaVector(lam).lambda_uc)
    # at d = 0 every ball is the bare root
    assert ball_probability(lam, (), 0) == 1.0
    assert ball_probability(lam, ((0b001, ()),), 0) == 0.0


def test_multicolor_key_has_probability_zero():
    lam = (1.0, 1.0)
    assert ball_probability(lam, ((0b11, ()),), 1) == 0.0
    assert ball_probability(lam, ((0b01, ()), (0b11, ())), 1) == 0.0
    assert ball_probability(lam, ((0b01, ((0b11, ()),)),), 2) == 0.0


def test_depth_one_catalog_mass_is_the_poisson_cdf():
    # a depth-1 ball is the root's Poisson(lambda_uc) children, so its keys
    # of at most SIZE_CAP vertices carry P(Poisson(lambda_uc) <= SIZE_CAP-1)
    lam = (10.0, 10.0)
    total = sum(
        ball_probability(lam, ((0b01, ()),) * a + ((0b10, ()),) * b, 1)
        for a in range(SIZE_CAP) for b in range(SIZE_CAP - a))
    cdf = scipy.stats.poisson.cdf(SIZE_CAP - 1, 20.0)
    assert cdf < 0.99
    assert total == pytest.approx(cdf, rel=1e-12)


def test_depth_two_key_by_hand():
    # two color-0 leaves and a color-1 child with one color-0 child, at
    # lambda = (1, 2): q_1(()) = q_1(((0b01, ()),)) = e^-3, so
    # q_2 = e^-3 (1 e^-3)^2 / 2! (2 e^-3)^1 / 1! = e^-12
    key = ((0b01, ()), (0b01, ()), (0b10, ((0b01, ()),)))
    assert ball_probability((1.0, 2.0), key, 2) == pytest.approx(
        math.exp(-12.0), rel=1e-12)


def test_tree_ball_law_matches_the_arena():
    # Pearson chi-square of arena-sampled balls against the exact law: one
    # cell per key expected at least 20 times, one pooled cell for the rest
    # and the balls past SIZE_CAP (at (1.5, 1.5), d = 2, some pass it)
    samples = 20000
    for lam, d in itertools.product([(1.5, 1.5), (0.9, 0.8, 0.7)], [1, 2]):
        counts, out = tree_ball_counts(lam, d, samples,
                                       np.random.default_rng(44))
        cells = [key for key in counts
                 if samples * ball_probability(lam, key, d) >= 20]
        observed = [counts[key] for key in cells]
        expected = [samples * ball_probability(lam, key, d) for key in cells]
        observed.append(samples - sum(observed))
        expected.append(samples - sum(expected))
        assert len(cells) >= 20 and expected[-1] >= 20, (lam, d)
        assert out > 0 or (lam, d) != ((1.5, 1.5), 2)
        pvalue = scipy.stats.chisquare(observed, expected).pvalue
        assert pvalue > 1e-3, (lam, d, pvalue)


def test_restricted_tv_edges():
    lam = (1.0, 1.0)
    assert restricted_tv(Counter({ISOLATED_ROOT_KEY: 4}), 4, lam, 0) == 0.0
    # only isolated roots at d = 1: the law gives them exp(-2)
    assert restricted_tv(Counter({ISOLATED_ROOT_KEY: 4}), 4, lam, 1) == (
        0.5 * (1.0 - math.exp(-2.0)))
    # the sum runs over the graph's keys: one the law never draws adds its
    # frequency, and the law's mass on keys the graph lacks adds nothing
    assert restricted_tv(Counter({((0b11, ()),): 2}), 4, lam, 1) == 0.25
    with pytest.raises(ValueError):
        restricted_tv(Counter(), 0, lam, 1)


def test_ecer_balls_approach_tree_balls():
    # small-scale version of the convergence check: the depth-1 ball law of
    # a sparse colored random graph is close to the branching process's
    lam = (1.0, 1.0)
    n, reps = 800, 3
    rng = np.random.default_rng(3)
    ecer = Counter()
    for _ in range(reps):
        g = sample_ecer(n, lam, rng)
        counts, _ = ecer_ball_counts(g, 1)
        ecer.update(counts)
    assert restricted_tv(ecer, reps * n, lam, 1) < 0.05
    # isolated roots appear with probability exp(-lambda_total) in the limit
    iso = ecer[ISOLATED_ROOT_KEY] / (reps * n)
    target = math.exp(-2.0)
    se = math.sqrt(target * (1 - target) / (reps * n))
    assert abs(iso - target) < 4.0 * se

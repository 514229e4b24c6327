"""Branching-process Monte Carlo tests: core sampling against Poisson oracles,
friend counting against the exact two-color series, and structural properties
of the friend-resolution recursion."""

import math

import numpy as np
import pytest
import scipy.stats

from caperc.analytic import (
    f_infinity_inclusion_exclusion,
    two_color_f_ell,
)
from caperc.ecbp import (
    CoreOverflow,
    CoreSampler,
    FriendCountOutcome,
    FriendCountSampler,
    McHistogram,
    mc_component_size_distribution,
    mc_f_infinity,
    mc_phi1_estimate,
    mc_string_subtree_counts,
)


def test_two_color_core_is_root_only():
    # with k = 2 the core is always just the root and b_i counts the root's
    # opposite-color children, so b_0 ~ Poisson(lam_1), b_1 ~ Poisson(lam_0)
    rng = np.random.default_rng(3)
    sampler = CoreSampler((0.7, 1.3), rng)
    draws = [sampler.sample() for _ in range(30000)]
    assert all(s.rho == 1 for s in draws)
    assert all(s.string_counts == {(): 1} for s in draws)
    for coord, mu in ((0, 1.3), (1, 0.7)):
        vals = np.array([s.b[coord] for s in draws])
        hi = int(vals.max()) + 1
        observed = np.bincount(vals, minlength=hi).astype(float)
        expected = np.array([scipy.stats.poisson.pmf(x, mu) for x in range(hi)])
        expected *= len(vals)
        # merge the sparse tail so every expected cell is >= 5
        cut = int(np.searchsorted(np.cumsum(expected[::-1]), 5.0))
        cut = hi - max(cut, 1)
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], expected[cut:].sum())
        stat, pvalue = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert pvalue > 0.01


def test_core_assumption_gate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        CoreSampler((1.2, 0.4, 0.4), rng)
    with pytest.raises(ValueError):
        FriendCountSampler((1.2, 0.4, 0.4), rng)


def test_core_node_cap():
    rng = np.random.default_rng(0)
    # with a supercritical single-color subset the core would be infinite;
    # instead force overflow via a tiny cap on a legal parameter
    sampler = CoreSampler((0.9, 0.9, 0.9), rng, node_cap=2)
    with pytest.raises(CoreOverflow):
        ok = 0
        for _ in range(2000):
            sampler.sample()
            ok += 1
        pytest.fail(f"no overflow in {ok} samples")


def test_three_color_layer_means_match_formula():
    # E|R_(i)| = lam_i / (1 - lam_i): total progeny of a subcritical
    # Poisson(lam_i) process started from Poisson(lam_i) root children
    lam = (0.5, 0.6, 0.7)
    rng = np.random.default_rng(5)
    sampler = CoreSampler(lam, rng)
    reps = 30000
    sums = np.zeros(3)
    sq = np.zeros(3)
    for _ in range(reps):
        s = sampler.sample()
        for i in range(3):
            c = s.string_counts.get((i,), 0)
            sums[i] += c
            sq[i] += c * c
    for i in range(3):
        mean = sums[i] / reps
        se = math.sqrt(max(sq[i] / reps - mean * mean, 0.0) / reps)
        assert abs(mean - lam[i] / (1 - lam[i])) < 3.5 * se


def test_vectorized_layers_match_core_sampler():
    lam = (0.5, 0.6, 0.7)
    counts = mc_string_subtree_counts(lam, 30000, np.random.default_rng(6))
    for i in range(3):
        mean = counts[:, i].mean()
        se = counts[:, i].std(ddof=1) / math.sqrt(counts.shape[0])
        assert abs(mean - lam[i] / (1 - lam[i])) < 3.5 * se


def test_vectorized_layers_require_subcritical_colors():
    with pytest.raises(ValueError):
        mc_string_subtree_counts((1.0, 0.5), 10, np.random.default_rng(0))


def test_phi1_mc_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mc_phi1_estimate((0.5, 0.5), {(0,): 0.0, (1,): 0.5}, 10, rng)


def test_mc_f_infinity_zero_when_not_supercritical():
    rng = np.random.default_rng(0)
    assert mc_f_infinity((0.8, 0.8), 10, rng) == (0.0, 0.0)


def test_mc_f_infinity_two_colors():
    target = f_infinity_inclusion_exclusion((2.0, 2.0))
    mean, se = mc_f_infinity((2.0, 2.0), 20000, np.random.default_rng(7))
    assert se > 0
    assert abs(mean - target) < 3.5 * se


def test_mc_f_infinity_three_colors():
    target = f_infinity_inclusion_exclusion((0.9, 0.9, 0.9))
    mean, se = mc_f_infinity((0.9, 0.9, 0.9), 30000, np.random.default_rng(8))
    assert abs(mean - target) < 3.5 * se


# -- friend counting --------------------------------------------------------

def test_outcome_validation():
    with pytest.raises(ValueError):
        FriendCountOutcome.finite(0)
    with pytest.raises(ValueError):
        FriendCountOutcome.censored("whatever")


def test_subcritical_friend_count_is_always_one():
    hist = mc_component_size_distribution(
        (0.8, 0.8), 2000, 3, np.random.default_rng(9))
    assert hist.finite_counts == {1: 2000}
    assert hist.censored == 0


def test_friend_count_reproducible_given_seed():
    outs = []
    for _ in range(2):
        sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(10))
        outs.append([sampler.sample() for _ in range(200)])
    assert outs[0] == outs[1]


def test_friend_counts_match_two_color_series():
    samples = 20000
    hist = mc_component_size_distribution(
        (2.0, 2.0), samples, 5, np.random.default_rng(11))
    assert sum(hist.finite_counts.values()) + hist.censored == samples
    for ell in range(1, 6):
        target = two_color_f_ell(2.0, 2.0, ell)
        se = max(hist.stderr(ell), math.sqrt(target * (1 - target) / samples))
        assert abs(hist.frequency(ell) - target) < 3.5 * se
    target_inf = f_infinity_inclusion_exclusion((2.0, 2.0))
    assert abs(hist.censored_mass - target_inf) < 3.5 * hist.censored_stderr()


def test_node_cap_censoring_reason():
    hist = mc_component_size_distribution(
        (2.0, 2.0), 500, 3, np.random.default_rng(12), node_cap=10)
    assert hist.censored_counts.get("node-cap", 0) > 0


def test_censored_mass_decreases_with_depth_cap():
    # a shallower cap can only censor more: the shallow run keeps outcomes the
    # deep run would have resolved as finite
    shallow = mc_component_size_distribution(
        (2.0, 2.0), 10000, 3, np.random.default_rng(13), depth_cap=3)
    deep = mc_component_size_distribution(
        (2.0, 2.0), 10000, 3, np.random.default_rng(13), depth_cap=40)
    slack = 4.0 * (shallow.censored_stderr() + deep.censored_stderr())
    assert shallow.censored_mass >= deep.censored_mass - slack


def test_histogram_bookkeeping():
    hist = McHistogram(10, {1: 6, 3: 1}, {"depth-cap": 3})
    assert hist.frequency(1) == 0.6
    assert hist.frequency(2) == 0.0
    assert hist.censored_mass == 0.3
    assert hist.dense(3) == [0.6, 0.0, 0.1]
    assert hist.to_json_dict()["histogram"] == {"1": 6, "3": 1}


# -- scripted resolution: monotonicity in the frontier types ----------------

def _resolve_with_fixed_type(gamma_mask):
    """Run the friend-resolution recursion on a fixed two-color arena where
    every frontier node is forced to the given extended type."""
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(0))
    sampler._type_masks = [gamma_mask]
    sampler._type_cum = [1.0]
    # root (avoids both colors), one color-0 child, one color-1 child; the
    # cluster avoiding color 0 died, so candidates are the root and node 2
    masks = [0b11, 0b10, 0b01]
    drawn = [0b11, 0, 0]
    kids = {(0, 0): [1], (0, 1): [2]}
    out = sampler._resolve_friends(masks, drawn, kids, dead=[0])
    assert out.kind == "finite"
    return out.ell


def test_resolution_hand_example():
    # with type 00 nothing is alive: the root keeps only itself; once bit 1
    # (blue-avoiding alive) is set on the frontier, node 2 joins
    assert _resolve_with_fixed_type(0b00) == 1
    assert _resolve_with_fixed_type(0b01) == 1
    assert _resolve_with_fixed_type(0b10) == 2
    assert _resolve_with_fixed_type(0b11) == 2


def test_resolution_monotone_in_types():
    for lo in range(4):
        for hi in range(4):
            if lo & hi == lo:  # lo is coordinatewise below hi
                assert (_resolve_with_fixed_type(lo)
                        <= _resolve_with_fixed_type(hi))

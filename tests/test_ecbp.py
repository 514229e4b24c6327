"""Branching-process Monte Carlo tests: core growth against Poisson and
chronology-atlas oracles, friend counting against the exact two-color series,
and structural properties of the friend-resolution recursion."""

import gc
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from caperc import ecbp
from caperc.analytic import (
    f_infinity_inclusion_exclusion,
    survival_theta,
    two_color_f_ell,
)
from caperc.chronology import core_and_boundary
from caperc.ecbp import (
    _BATCH,
    DEPTH_CAPPED,
    NODE_CAPPED,
    CoreOverflow,
    FriendCountOutcome,
    FriendCountSampler,
    McHistogram,
    _growth_table,
    core_counts,
    mc_component_size_distribution,
    mc_f_infinity,
    mc_phi1_estimate,
)
from caperc.experiments import _CHUNK
from caperc.params import LambdaVector
from caperc.trees import sample_ecbp


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_growth_table(k):
    lam = LambdaVector([0.1 * (c + 1) for c in range(k)])
    full = (1 << k) - 1
    friend = _growth_table(lam, 1)
    core = _growth_table(lam, 2)
    # every admissible (mask, color) pair, mask-major and color-minor
    assert friend[0] == [(m, c, m & ~(1 << c)) for m in range(1, full + 1)
                         for c in range(k) if m & ~(1 << c)]
    # core nodes keep two avoided colors; all their children avoid one
    assert core[0] == [e for e in friend[0] if bin(e[0]).count("1") >= 2]
    for entries, entry_mask, entry_lam, scatter in (friend, core):
        assert entry_mask.tolist() == [m for m, _, _ in entries]
        assert entry_lam.tolist() == [lam[c] for _, c, _ in entries]
        assert scatter.argmax(axis=1).tolist() == [cm for *_, cm in entries]
        assert (scatter.sum(axis=1) == 1).all()


def test_two_color_core_is_root_only():
    # with k = 2 the core is always just the root and b_i counts the root's
    # opposite-color children, so b_0 ~ Poisson(lam_1), b_1 ~ Poisson(lam_0)
    rng = np.random.default_rng(3)
    counts = core_counts((0.7, 1.3), 30000, rng)
    assert (counts[:, 0b11] == 1).all() and (counts[:, 0] == 0).all()
    for coord, mu in ((0, 1.3), (1, 0.7)):
        vals = counts[:, 1 << coord]
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
        core_counts((1.2, 0.4, 0.4), 10, rng)
    with pytest.raises(ValueError):
        FriendCountSampler((1.2, 0.4, 0.4), rng)


def test_core_node_cap():
    rng = np.random.default_rng(0)
    # with a supercritical single-color subset the core would be infinite;
    # instead force overflow via a tiny cap on a legal parameter
    with pytest.raises(CoreOverflow):
        core_counts((0.9, 0.9, 0.9), 2000, rng, node_cap=2)
    # the root alone is within a cap of 1 at k = 2
    assert core_counts((2.0, 2.0), 2000, rng, node_cap=1).shape == (2000, 4)


def test_three_color_layer_means_match_formula():
    # E|R_(i)| = lam_i / (1 - lam_i): total progeny of a subcritical
    # Poisson(lam_i) process started from Poisson(lam_i) root children
    lam = (0.5, 0.6, 0.7)
    rng = np.random.default_rng(5)
    reps = 30000
    counts = core_counts(lam, reps, rng)
    for i in range(3):
        layer = counts[:, 0b111 ^ (1 << i)]
        mean = layer.mean()
        se = layer.std() / math.sqrt(reps)
        assert abs(mean - lam[i] / (1 - lam[i])) < 3.5 * se


@pytest.mark.parametrize("lam", [(0.2, 0.3, 0.4), (0.2, 0.2, 0.2, 0.2)])
def test_core_and_boundary_law_matches_chronology_atlas(lam):
    # lambda_uc < 1: the whole tree is finite, so the atlas of the root sees
    # every core and boundary node
    k = len(lam)
    trees = 2000
    rng = np.random.default_rng(27)
    oracle = []
    for _ in range(trees):
        tree = sample_ecbp(lam, 400, rng)
        assert max(tree.depth) < 400
        rho, b = core_and_boundary(tree, 0, k=k)
        oracle.append((rho, *b))
    oracle = np.array(oracle)
    counts = core_counts(lam, 20000, np.random.default_rng(28))
    core = [m for m in range(1 << k) if bin(m).count("1") >= 2]
    grown = np.column_stack([counts[:, core].sum(axis=1)]
                            + [counts[:, 1 << i] for i in range(k)])
    se = np.sqrt(oracle.var(axis=0, ddof=1) / len(oracle)
                 + grown.var(axis=0, ddof=1) / len(grown))
    assert (np.abs(oracle.mean(axis=0) - grown.mean(axis=0)) < 3.5 * se).all()


def test_phi1_estimate_rejects_invalid_lambda():
    rng = np.random.default_rng(0)
    z = {(0,): 0.5, (1,): 0.5, (2,): 0.5}
    # Phi_1 needs strings of length 1 <= k - 2
    with pytest.raises(ValueError, match="k >= 3"):
        mc_phi1_estimate((0.5, 0.5), z, 10, rng)
    # the (0,) layer of a Poisson(1.0) color is a.s. finite but outside the
    # small-subset assumption
    with pytest.raises(ValueError, match="size <= k-2"):
        mc_phi1_estimate((1.0, 0.5, 0.5), z, 10, rng)


def test_phi1_mc_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="z values"):
        mc_phi1_estimate((0.5, 0.5, 0.5), {(0,): 0.0, (1,): 0.5, (2,): 0.5},
                         10, rng)


@pytest.mark.parametrize("samples", [0, 1])
def test_phi1_estimate_needs_two_samples_for_its_error(samples):
    z = {(0,): 0.5, (1,): 0.5, (2,): 0.5}
    with pytest.raises(ValueError, match="samples must be >= 2"):
        mc_phi1_estimate((0.5, 0.5, 0.5), z, samples, np.random.default_rng(0))


def test_mc_f_infinity_zero_when_not_supercritical():
    rng = np.random.default_rng(0)
    assert mc_f_infinity((0.8, 0.8), 10, rng) == (0.0, 0.0)


def test_mc_f_infinity_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mc_f_infinity((2.0, 2.0), 0, np.random.default_rng(0))


def test_mc_f_infinity_two_colors():
    target = f_infinity_inclusion_exclusion((2.0, 2.0))
    mean, se = mc_f_infinity((2.0, 2.0), 20000, np.random.default_rng(7))
    assert se > 0
    assert abs(mean - target) < 3.5 * se


def test_mc_f_infinity_three_colors():
    target = f_infinity_inclusion_exclusion((0.9, 0.9, 0.9))
    mean, se = mc_f_infinity((0.9, 0.9, 0.9), 30000, np.random.default_rng(8))
    assert abs(mean - target) < 3.5 * se


def test_core_estimators_grow_one_block_at_a_time(monkeypatch):
    # 2.5 blocks from one rng give the draws of one core_counts call on the
    # whole array, while no call holds more than a block
    lam, samples = (0.9, 0.9, 0.9), 5 * ecbp._CORE_BLOCK // 2
    colors = np.arange(3)
    miss = np.array([1.0 - survival_theta(sum(lam) - x) for x in lam])
    z = {(0,): 0.5, (1,): 0.6, (2,): 0.7}
    counts = core_counts(lam, samples, np.random.default_rng(4))
    vals = np.prod(1.0 - miss ** counts[:, 1 << colors], axis=1)
    f_inf = (vals.mean(), vals.std() / math.sqrt(samples))
    counts = core_counts(lam, samples, np.random.default_rng(5))
    vals = np.exp(counts[:, 7 ^ (1 << colors)] @ np.log([0.5, 0.6, 0.7]))
    phi1 = (vals.mean(), vals.std(ddof=1) / math.sqrt(samples))

    sizes = []

    def recorded(lam, samples, *args):
        sizes.append(samples)
        return core_counts(lam, samples, *args)
    monkeypatch.setattr(ecbp, "core_counts", recorded)
    assert mc_f_infinity(lam, samples, np.random.default_rng(4)) == f_inf
    assert mc_phi1_estimate(lam, z, samples, np.random.default_rng(5)) == phi1
    assert max(sizes) == ecbp._CORE_BLOCK
    assert sum(sizes) == 2 * samples


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


def test_three_color_censored_mass_matches_f_infinity():
    lam = (0.7, 0.7, 0.7)
    target = f_infinity_inclusion_exclusion(lam)
    assert abs(target - 0.20173) < 1e-5
    hist = mc_component_size_distribution(
        lam, 20000, 3, np.random.default_rng(14))
    assert abs(hist.censored_mass - target) < 3.5 * hist.censored_stderr()


def test_friend_counts_match_asymmetric_two_color_series():
    # theta(0.5) = 0: every sample ends finite, and most are decided on
    # counts alone because the root is the only candidate friend
    samples = 20000
    hist = mc_component_size_distribution(
        (1.5, 0.5), samples, 5, np.random.default_rng(17))
    assert hist.censored == 0
    for ell in range(1, 6):
        target = two_color_f_ell(1.5, 0.5, ell)
        se = max(hist.stderr(ell), math.sqrt(target * (1 - target) / samples))
        assert abs(hist.frequency(ell) - target) < 3.5 * se


def test_component_size_distribution_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mc_component_size_distribution(
            (2.0, 2.0), 0, 3, np.random.default_rng(0))


@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.8, 0.8)])
def test_depth_cap_zero_censors_every_sample(lam):
    hist = mc_component_size_distribution(
        lam, 1500, 3, np.random.default_rng(20), depth_cap=0)
    assert hist.censored_counts == {"depth-cap": 1500}


@pytest.mark.parametrize("depth_cap", [1, 40])
@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.8, 0.8)])
def test_node_cap_zero_censors_every_sample(lam, depth_cap):
    # the root alone is over the cap
    hist = mc_component_size_distribution(
        lam, 1500, 3, np.random.default_rng(21), depth_cap=depth_cap,
        node_cap=0)
    assert hist.censored_counts == {"node-cap": 1500}


def test_batch_divides_ecbp_mc_chunk():
    assert _CHUNK % _BATCH == 0


@pytest.mark.parametrize("samples", [1, 1023, 1025, 2049])
def test_histograms_across_block_boundaries(samples):
    hists = [mc_component_size_distribution(
        (2.0, 2.0), samples, 3, np.random.default_rng(22)) for _ in range(2)]
    assert sum(hists[0].finite_counts.values()) + hists[0].censored == samples
    assert hists[0] == hists[1]


def test_friend_resolution_leaves_no_cyclic_garbage():
    sampler = FriendCountSampler((1.5, 0.5), np.random.default_rng(23))
    gc.collect()
    gc.disable()
    try:
        outs = [sampler.sample() for _ in range(1000)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(out.ell > 1 for out in outs)  # some arenas were resolved


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


# -- materialization of grown level totals ----------------------------------

def _arena_depths(masks, kids):
    """Depth of every node, checking that each non-root node has exactly one
    parent edge and the avoid-mask that edge implies."""
    depth = [0] + [None] * (len(masks) - 1)
    for (u, c), r in sorted(kids.items()):
        assert isinstance(r, range) and r.step == 1 and len(r) > 0
        for v in r:
            assert depth[v] is None
            depth[v] = depth[u] + 1
            assert masks[v] == masks[u] & ~(1 << c)
    assert None not in depth
    return depth


def test_materialized_arena_reproduces_level_totals():
    sampler = FriendCountSampler((0.7, 0.7, 0.7), np.random.default_rng(15))
    # (mask, color, child mask, total) per grown level; mask 0b100 nodes
    # avoid color 2 only, so color 2 is not admissible for them
    levels = [
        [(0b111, 0, 0b110, 3), (0b111, 1, 0b101, 2), (0b111, 2, 0b011, 1)],
        [(0b110, 1, 0b100, 5), (0b110, 2, 0b010, 4), (0b101, 0, 0b100, 3),
         (0b011, 1, 0b001, 2)],
        [(0b100, 0, 0b100, 7), (0b100, 1, 0b100, 6), (0b010, 2, 0b010, 9)],
    ]
    for _ in range(50):
        masks, drawn, kids = sampler._materialize(levels)
        assert masks[0] == 0b111 and len(drawn) == len(masks)
        depth = _arena_depths(masks, kids)
        totals = Counter()
        for (u, c), r in kids.items():
            totals[(depth[u], masks[u], c)] += len(r)
        assert totals == Counter({(d, m, c): t
                                  for d, level in enumerate(levels)
                                  for m, c, _, t in level})
        for v, m in enumerate(masks):
            if depth[v] == len(levels):
                assert drawn[v] == 0  # the unrevealed frontier
            else:
                admissible = sum(1 << c for c in range(3) if m & ~(1 << c))
                assert drawn[v] == admissible


def test_split_among_parents_is_uniform():
    # the root's p color-0 children (mask 0b10) share t color-0 grandchildren
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(16))
    p, t, reps = 5, 12, 2000
    levels = [[(0b11, 0, 0b10, p)], [(0b10, 0, 0b10, t)]]
    per_parent = np.zeros((reps, p), dtype=int)
    for rep in range(reps):
        kids = sampler._materialize(levels)[2]
        for i, u in enumerate(kids[(0, 0)]):
            per_parent[rep, i] = len(kids.get((u, 0), ()))
    assert (per_parent.sum(axis=1) == t).all()
    # children pick parents uniformly: equal totals per parent ...
    _, pvalue = scipy.stats.chisquare(per_parent.sum(axis=0))
    assert pvalue > 0.01
    # ... and each parent's share is Binomial(t, 1/p), as a multinomial
    observed = np.bincount(per_parent[:, 0], minlength=t + 1).astype(float)
    expected = scipy.stats.binom.pmf(np.arange(t + 1), t, 1 / p) * reps
    cut = 6  # merge the tail so every expected cell is >= 5
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    _, pvalue = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert pvalue > 0.01


# -- settling a sample on its counts ----------------------------------------

def _scripted(sampler, levels):
    """Replaces the block's Poisson draws: every sample grows the given
    totals, one {(mask, color): total} dict per level."""
    entry = {(m, c): e for e, (m, c, _) in enumerate(sampler._entries)}
    script = iter(levels)

    def poisson(lam):
        draws = np.zeros(lam.shape, dtype=np.int64)
        for (m, c), t in next(script).items():
            draws[:, entry[(m, c)]] = t
        return draws
    sampler._poisson = poisson


def _no_materialize(levels):
    raise AssertionError("materialized")


def test_root_only_sample_is_settled_on_counts():
    # the root's two color-0 children avoid color 1 only: the cluster
    # avoiding color 0 dies at level 1 with the root as its only member
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(24))
    _scripted(sampler, [{(0b11, 0): 2}])
    sampler._materialize = _no_materialize
    assert [sampler.sample() for _ in range(3)] == [
        FriendCountOutcome.finite(1)] * 3


@pytest.mark.parametrize("caps, level, expected", [
    # a dead cluster is tested before depth_cap ...
    ((1, 10**6), {(0b11, 0): 2}, FriendCountOutcome.finite(1)),
    # ... depth_cap before node_cap ...
    ((1, 30), {(0b11, 0): 20, (0b11, 1): 20}, DEPTH_CAPPED),
    # ... and node_cap before the certified shortcut
    ((40, 30), {(0b11, 0): 20, (0b11, 1): 20}, NODE_CAPPED),
])
def test_order_of_checks(caps, level, expected):
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(26), *caps)
    assert max(sampler.cert) <= 20  # 20 nodes per cluster are certified
    _scripted(sampler, [level])
    assert sampler.sample() == expected


def test_other_candidates_are_materialized():
    # level 1 holds a mask-0b10 node, which lies in the cluster avoiding
    # color 1; that cluster dies at level 2, so the node is a candidate
    levels = [{(0b11, 0): 1, (0b11, 1): 1}, {(0b01, 1): 1}]
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(25))
    _scripted(sampler, levels)
    sampler._materialize = _no_materialize
    with pytest.raises(AssertionError, match="materialized"):
        sampler.sample()
    assert sampler._block[1] == (
        [[(0b11, 0, 0b10, 1), (0b11, 1, 0b01, 1)], [(0b01, 1, 0b01, 1)]],
        [1])
    del sampler._materialize
    assert sampler.sample().ell in (1, 2)


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

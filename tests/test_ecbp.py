"""Branching-process Monte Carlo tests: core growth against Poisson and
chronology-atlas oracles, friend counting against the exact two-color series,
and the numpy friend resolution against the memoized recursion it replaced."""

import gc
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from caperc import ecbp
from caperc.analytic import (
    extended_type_distribution,
    f_infinity_inclusion_exclusion,
    theta_avoid,
    two_color_f_ell,
)
from caperc.ecbp import (
    _BATCH,
    _CELLS,
    DEPTH_CAPPED,
    NODE_CAPPED,
    FriendCountOutcome,
    FriendCountSampler,
    McHistogram,
    _code_outcomes,
    _growth_table,
    mc_component_size_distribution,
)
from caperc.experiments import _CHUNK
from caperc.params import LambdaVector
import oracles
from oracles import (
    CoreOverflow,
    core_and_boundary,
    core_counts,
    mc_f_infinity,
    sample_ecbp,
)
from test_acceptance import mc_phi1_estimate


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_growth_table(k):
    lam = LambdaVector([0.1 * (c + 1) for c in range(k)])
    full = (1 << k) - 1
    masks, colors, child = _growth_table(k)
    entries = list(zip(masks.tolist(), colors.tolist(), child.tolist()))
    # every admissible (mask, color) pair, mask-major and color-minor
    assert entries == [(m, c, m & ~(1 << c)) for m in range(1, full + 1)
                       for c in range(k) if m & ~(1 << c)]
    # the entry count mc_component_size_distribution sizes blocks from
    assert len(entries) == k * (2**k - 2)
    # core nodes keep two avoided colors; all their children avoid one
    core = [e for e in entries if bin(e[0]).count("1") >= 2]
    entry_mask, entry_lam, core_child, scatter = oracles.core_growth_table(lam)
    assert list(zip(entry_mask.tolist(), core_child.tolist())) == [
        (m, cm) for m, _, cm in core]
    assert entry_lam.tolist() == [lam[c] for _, c, _ in core]
    assert scatter.argmax(axis=1).tolist() == [cm for *_, cm in core]
    assert (scatter.sum(axis=1) == 1).all()
    # the friend sampler's tables (at a distinct lambda per color that it
    # accepts): its level sums rely on the child masks being exactly
    # 1..full-1, each one run of the entries in _by_child order, at _runs
    friend = LambdaVector([0.1 * (c + 1) / k for c in range(k)])
    sampler = FriendCountSampler(friend, np.random.default_rng(0))
    sampler._build_tables()
    assert sampler._entry_mask.tolist() == [m for m, _, _ in entries]
    assert sampler._entry_lam.tolist() == [friend[c] for _, c, _ in entries]
    assert sampler._entry_child.tolist() == [cm for *_, cm in entries]
    by_child = sampler._entry_child[sampler._by_child]
    assert sorted(set(by_child.tolist())) == list(range(1, full))
    assert (np.diff(by_child.astype(int)) >= 0).all()
    assert by_child[sampler._runs].tolist() == list(range(1, full))


def test_table_setup_memory_is_not_4_to_the_k():
    # at k = 10 a dense entry -> child mask matrix alone would take 84 MB
    sampler = FriendCountSampler([0.9 / 8] * 10, np.random.default_rng(0))
    gc.collect()
    tracemalloc.start()
    try:
        sampler._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_level_sums_match_the_dense_scatter(k, monkeypatch):
    # the run sums by child mask against the entry -> child mask matrix
    # product: from identical seeds, identical codes and generator states
    # over two consecutive blocks, their dead samples resolved on arenas
    lam = [0.9 / (k - 2)] * k
    runs, dense = (FriendCountSampler(lam, np.random.default_rng(40 + k))
                   for _ in range(2))
    monkeypatch.setattr(dense, "_level_counts",
                        oracles.scatter_level_counts(dense))
    for size in (_BATCH, 500):
        codes = runs._grow_levels(size)
        assert np.array_equal(codes, dense._grow_levels(size))
        assert (codes > 1).any()  # friends found on an arena
    assert runs._rng.bit_generator.state == dense._rng.bit_generator.state


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
    lam, samples = (0.9, 0.9, 0.9), 5 * oracles._CORE_BLOCK // 2
    colors = np.arange(3)
    miss = 1.0 - theta_avoid(lam)
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
    monkeypatch.setattr(oracles, "core_counts", recorded)
    assert mc_f_infinity(lam, samples, np.random.default_rng(4)) == f_inf
    assert mc_phi1_estimate(lam, z, samples, np.random.default_rng(5)) == phi1
    assert max(sizes) == oracles._CORE_BLOCK
    assert sum(sizes) == 2 * samples


# -- friend counting --------------------------------------------------------

def test_outcome_validation():
    with pytest.raises(ValueError):
        FriendCountOutcome.finite(0)
    with pytest.raises(ValueError):
        FriendCountOutcome.censored("whatever")


def test_subcritical_friend_count_is_always_one():
    hist = mc_component_size_distribution(
        (0.8, 0.8), 2000, np.random.default_rng(9))
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
        (2.0, 2.0), samples, np.random.default_rng(11))
    assert sum(hist.finite_counts.values()) + hist.censored == samples
    for ell, target in enumerate(two_color_f_ell(2.0, 2.0, 5), start=1):
        se = max(hist.stderr(ell), math.sqrt(target * (1 - target) / samples))
        assert abs(hist.frequency(ell) - target) < 3.5 * se
    target_inf = f_infinity_inclusion_exclusion((2.0, 2.0))
    assert abs(hist.censored_mass - target_inf) < 3.5 * hist.censored_stderr()


def test_three_color_censored_mass_matches_f_infinity():
    lam = (0.7, 0.7, 0.7)
    target = f_infinity_inclusion_exclusion(lam)
    assert abs(target - 0.20173) < 1e-5
    hist = mc_component_size_distribution(
        lam, 20000, np.random.default_rng(14))
    assert abs(hist.censored_mass - target) < 3.5 * hist.censored_stderr()


def test_three_color_friend_counts_match_the_exact_law():
    # f_2 and f_3 at (0.7, 0.7, 0.7) from the exact power-series recursion
    # over dead sets, which ECER graphs at n = 10^6 agree with; a friend
    # rule that reads a node's link to infinity through its own descendants
    # only gives 0.0707 and 0.0306, over 5 SE off here
    samples = 300000
    hist = mc_component_size_distribution(
        (0.7, 0.7, 0.7), samples, np.random.default_rng(41))
    for ell, target in ((2, 0.06821), (3, 0.02900)):
        se = max(hist.stderr(ell), math.sqrt(target * (1 - target) / samples))
        assert abs(hist.frequency(ell) - target) < 3.5 * se


def _assert_asymmetric_two_color_law():
    # theta(0.5) = 0: every sample ends finite, and most are decided on
    # counts alone because the root is the only candidate friend
    samples = 20000
    hist = mc_component_size_distribution(
        (1.5, 0.5), samples, np.random.default_rng(17))
    assert hist.censored == 0
    for ell, target in enumerate(two_color_f_ell(1.5, 0.5, 5), start=1):
        se = max(hist.stderr(ell), math.sqrt(target * (1 - target) / samples))
        assert abs(hist.frequency(ell) - target) < 3.5 * se


def test_friend_counts_match_asymmetric_two_color_series():
    _assert_asymmetric_two_color_law()


def test_component_size_distribution_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mc_component_size_distribution(
            (2.0, 2.0), 0, np.random.default_rng(0))


@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.8, 0.8)])
def test_depth_cap_zero_censors_every_sample(lam):
    hist = mc_component_size_distribution(
        lam, 1500, np.random.default_rng(20), depth_cap=0)
    assert hist.censored_counts == {"depth-cap": 1500}


@pytest.mark.parametrize("depth_cap", [1, 40])
@pytest.mark.parametrize("lam", [(2.0, 2.0), (0.8, 0.8)])
def test_node_cap_zero_censors_every_sample(lam, depth_cap):
    # the root alone is over the cap
    hist = mc_component_size_distribution(
        lam, 1500, np.random.default_rng(21), depth_cap=depth_cap,
        node_cap=0)
    assert hist.censored_counts == {"node-cap": 1500}


def _block_sizes(monkeypatch):
    """The sizes FriendCountSampler._grow_block is called with, from now on."""
    sizes = []
    grow = FriendCountSampler._grow_block

    def recorded(self, size):
        sizes.append(size)
        return grow(self, size)
    monkeypatch.setattr(FriendCountSampler, "_grow_block", recorded)
    return sizes


@pytest.mark.parametrize("samples", [1, 1023, 16384, 16385, 10**5])
def test_blocks_grow_exactly_the_samples_asked_for(monkeypatch, samples):
    # at k = 2 the cell budget holds 16384 samples per block: an ecbp-mc
    # chunk grows as one block, and no call grows a sample it does not use
    sizes = _block_sizes(monkeypatch)
    hist = mc_component_size_distribution(
        (2.0, 2.0), samples, np.random.default_rng(30))
    assert hist.samples == sum(sizes) == samples
    assert len(sizes) == -(-samples // 16384)
    assert max(sizes) <= max(_BATCH, _CELLS // 4) == _CHUNK


def test_direct_sampler_grows_batch_blocks(monkeypatch):
    sizes = _block_sizes(monkeypatch)
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(31))
    for _ in range(_BATCH + 1):
        sampler.sample()
    assert sizes == [_BATCH, _BATCH]


@pytest.mark.parametrize("samples", [1, 16383, 16384, 16385])
def test_histograms_across_block_boundaries(samples):
    hists = [mc_component_size_distribution(
        (2.0, 2.0), samples, np.random.default_rng(22)) for _ in range(2)]
    assert sum(hists[0].finite_counts.values()) + hists[0].censored == samples
    assert hists[0] == hists[1]


@pytest.mark.parametrize("samples", [3639, 3640, 3641])
def test_three_color_histograms_across_block_boundaries(samples):
    # 18 growth entries at k = 3: 3640 samples per block
    hists = [mc_component_size_distribution(
        (0.7, 0.7, 0.7), samples, np.random.default_rng(22))
        for _ in range(2)]
    assert sum(hists[0].finite_counts.values()) + hists[0].censored == samples
    assert hists[0] == hists[1]


def _law_cells(lam, seed):
    """Friend-count cells l = 1..5, l > 5 and censored of 20000 samples."""
    hist = mc_component_size_distribution(
        lam, 20000, np.random.default_rng(seed))
    finite = [hist.finite_counts.get(ell, 0) for ell in range(1, 6)]
    return finite + [hist.samples - sum(finite) - hist.censored,
                     hist.censored]


def _same_law(*cells):
    """Two-sample chi-square p-value of the given cell counts."""
    table = np.array(cells)
    table = table[:, table.sum(axis=0) > 0]
    return scipy.stats.chi2_contingency(table)[1]


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (0.7, 0.7, 0.7)])
def test_block_size_leaves_the_law_unchanged(monkeypatch, lam):
    # the same law from 1024-sample blocks and from blocks at the cell
    # budget: cells l = 1..5, l > 5 and censored, two-sample chi-square
    sizes = _block_sizes(monkeypatch)
    shipped = _law_cells(lam, 32)
    assert max(sizes) > _BATCH
    sizes.clear()
    monkeypatch.setattr(ecbp, "_CELLS", 0)
    batched = _law_cells(lam, 33)
    assert max(sizes) == _BATCH
    assert _same_law(shipped, batched) > 1e-3


def test_friend_resolution_leaves_no_cyclic_garbage():
    # some samples have other friends than the root: at k = 2 drawn on the
    # counts, at k = 3 resolved on an arena
    for lam in ((1.5, 0.5), (0.9, 0.8, 0.7)):
        sampler = FriendCountSampler(lam, np.random.default_rng(23))
        gc.collect()
        gc.disable()
        try:
            outs = [sampler.sample() for _ in range(1000)]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert any(out.kind == "finite" and out.ell > 1 for out in outs)


def test_node_cap_censoring_reason():
    hist = mc_component_size_distribution(
        (2.0, 2.0), 500, np.random.default_rng(12), node_cap=10)
    assert hist.censored_counts.get("node-cap", 0) > 0


def test_censored_mass_decreases_with_depth_cap():
    # a shallower cap can only censor more: the shallow run keeps outcomes the
    # deep run would have resolved as finite
    shallow = mc_component_size_distribution(
        (2.0, 2.0), 10000, np.random.default_rng(13), depth_cap=3)
    deep = mc_component_size_distribution(
        (2.0, 2.0), 10000, np.random.default_rng(13), depth_cap=40)
    slack = 4.0 * (shallow.censored_stderr() + deep.censored_stderr())
    assert shallow.censored_mass >= deep.censored_mass - slack


def test_histogram_bookkeeping():
    hist = McHistogram(10, {1: 6, 3: 1}, {"depth-cap": 3})
    assert hist.frequency(1) == 0.6
    assert hist.frequency(2) == 0.0
    assert hist.censored_mass == 0.3
    assert hist.dense(3) == [0.6, 0.0, 0.1]
    assert hist.to_json_dict()["histogram"] == {"1": 6, "3": 1}




def test_one_sample_per_pass(monkeypatch):
    # with a node budget of 1 every pass resolves a single sample, and the
    # law is that of the default passes
    lam = (0.9, 0.8, 0.7)
    shipped = _law_cells(lam, 34)
    monkeypatch.setattr(ecbp, "_PASS_NODES", 1)
    for samples in (1, 3641):
        hist = mc_component_size_distribution(
            (0.7, 0.7, 0.7), samples, np.random.default_rng(22))
        assert sum(hist.finite_counts.values()) + hist.censored == samples
    assert _same_law(shipped, _law_cells(lam, 35)) > 1e-3


# -- the arena of grown level totals -----------------------------------------

def _history(sampler, levels, samples=1):
    """Level history of `samples` samples that all grow the given totals, one
    {(mask, color): total} dict per level."""
    masks, colors, _ = _growth_table(sampler.k)
    entry = {(m, c): e for e, (m, c)
             in enumerate(zip(masks.tolist(), colors.tolist()))}
    history = []
    for level in levels:
        draws = np.zeros((samples, len(entry)), dtype=np.int64)
        for (m, c), t in level.items():
            draws[:, entry[(m, c)]] = t
        history.append((np.arange(samples), draws))
    return history


def _edge_color(full, keep):
    return (full ^ int(keep)).bit_length() - 1


def test_materialized_arena_reproduces_level_totals():
    sampler = FriendCountSampler((0.7, 0.7, 0.7), np.random.default_rng(15))
    # {(mask, color): total} per grown level and sample; mask 0b100 nodes
    # avoid color 2 only, so color 2 is not admissible for them; sample 1
    # stops a level earlier
    levels = [[
        {(0b111, 0): 3, (0b111, 1): 2, (0b111, 2): 1},
        {(0b110, 1): 5, (0b110, 2): 4, (0b101, 0): 3, (0b011, 1): 2},
        {(0b100, 0): 7, (0b100, 1): 6, (0b010, 2): 9},
    ], [
        {(0b111, 0): 1, (0b111, 2): 2},
        {(0b110, 1): 2, (0b011, 0): 1},
    ]]
    depths = np.array([3, 2])
    history = [(np.arange(2), np.vstack([a[1], b[1]])) for a, b in
               zip(*(_history(sampler, sample_levels)
                     for sample_levels in levels))]
    history.append(_history(sampler, levels[0])[2])
    for _ in range(50):
        sample, mask, keep, parent, frontier, starts = sampler._arena(
            np.arange(2), depths, history)
        # the roots, then one level per grown level
        assert starts[:2] == [0, 2] and len(starts) == len(levels[0]) + 2
        assert mask[:2].tolist() == [0b111] * 2 and sample[:2].tolist() == [0, 1]
        depth = np.repeat(np.arange(4), np.diff(starts))
        totals = Counter()
        for v, u, m, kp in zip(range(2, len(mask)), parent[2:].tolist(),
                               mask[2:].tolist(), keep[2:].tolist()):
            c = _edge_color(0b111, kp)
            assert kp == 0b111 & ~(1 << c)
            assert depth[u] == depth[v] - 1 and sample[u] == sample[v]
            assert m == int(mask[u]) & ~(1 << c)
            totals[(int(sample[v]), int(depth[u]), int(mask[u]), c)] += 1
        assert totals == Counter({(s, d, m, c): t
                                  for s, sample_levels in enumerate(levels)
                                  for d, level in enumerate(sample_levels)
                                  for (m, c), t in level.items()})
        # the last level of each sample is its unrevealed frontier
        assert (frontier == (depth == depths[sample])).all()
        # each level's nodes come grouped by (sample, mask)
        for lo, hi in zip(starts[1:], starts[2:]):
            key = sample[lo:hi] * 8 + mask[lo:hi]
            assert (np.diff(key) >= 0).all()


def test_split_among_parents_is_uniform():
    # the root's p color-0 children (mask 0b10) share t color-0 grandchildren;
    # reps samples of the same totals are split in one arena
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(16))
    p, t, reps = 5, 12, 2000
    history = _history(sampler, [{(0b11, 0): p}, {(0b10, 0): t}], reps)
    sample, _, _, parent, _, starts = sampler._arena(
        np.arange(reps), np.full(reps, 2), history)
    grand = slice(starts[2], starts[3])
    local = parent[grand] - starts[1] - p * sample[grand]
    assert ((local >= 0) & (local < p)).all()  # a parent of the same sample
    per_parent = np.zeros((reps, p), dtype=int)
    np.add.at(per_parent, (sample[grand], local), 1)
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

def _scripted(sampler, *groups):
    """Replaces the block's Poisson draws: every sample grows the given
    totals, one {(mask, color): total} dict per level. With several groups
    of levels the block's samples follow them in equal parts, in order;
    each group grows at least the levels of the next, so the samples still
    growing come first. At k = 2 a level is drawn as the two clusters'
    columns: the root's color-0 children (cluster 1) and color-1 children
    (cluster 0), then the children of cluster 0's nodes (via color 1) and of
    cluster 1's (via color 0)."""
    depth = len(groups[0])
    histories = [_history(sampler, levels + [{}] * (depth - len(levels)),
                          _BATCH // len(groups)) for levels in groups]
    # each level's draws, the groups stacked in block order
    script = [np.vstack([draws for _, draws in level])
              for level in zip(*histories)]
    if sampler.k == 2:
        # the entries are (0b01, 1), (0b10, 0), (0b11, 0), (0b11, 1)
        masks, colors, _ = _growth_table(2)
        assert list(zip(masks.tolist(), colors.tolist())) == [
            (1, 1), (2, 0), (3, 0), (3, 1)]
        script = [draws[:, [2, 3] if d == 0 else [0, 1]]
                  for d, draws in enumerate(script)]
    script = iter(script)

    def poisson(lam):
        return next(script)[:len(lam)]
    sampler._poisson = poisson


def _no_arena(ids, depths, history):
    raise AssertionError("materialized")


def test_root_only_sample_is_settled_on_counts():
    # the root's two color-0 children avoid color 1 only: the cluster
    # avoiding color 0 dies at level 1 with the root as its only member
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(24))
    _scripted(sampler, [{(0b11, 0): 2}])
    sampler._arena = _no_arena
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
    # level 1 holds mask-0b101 and mask-0b011 nodes, which lie in the
    # cluster avoiding color 0; that cluster dies at level 2, so they are
    # candidates, and at k = 3 their sample is resolved on an arena
    levels = [{(0b111, 0): 1, (0b111, 1): 1, (0b111, 2): 1},
              {(0b110, 1): 1, (0b110, 2): 1}]
    sampler = FriendCountSampler((0.7, 0.7, 0.7), np.random.default_rng(25))
    _scripted(sampler, levels)
    sampler._arena = _no_arena
    with pytest.raises(AssertionError, match="materialized"):
        sampler.sample()
    del sampler._arena
    _scripted(sampler, levels)
    handed = []
    arena, friend_counts = sampler._arena, sampler._friend_counts

    def recorded(ids, depths, history):
        handed.append((ids, depths, history))
        return arena(ids, depths, history)
    sampler._arena = recorded
    sampler._friend_counts = lambda arena, deadmasks: (
        handed.append(deadmasks) or friend_counts(arena, deadmasks))
    assert sampler.sample().ell in (1, 2, 3)
    # the whole block in one pass: every sample grew the two scripted
    # levels, and the cluster avoiding color 0 died
    (ids, depths, history), deadmasks = handed
    assert ids.tolist() == list(range(_BATCH))
    assert depths.tolist() == [2] * _BATCH
    assert deadmasks.tolist() == [0b001] * _BATCH
    expected = _history(sampler, levels, _BATCH)
    assert len(history) == len(expected)
    for (ids, draws), (_, want) in zip(history, expected):
        assert (draws == want[ids]).all()


def _no_resolve(*args):
    raise AssertionError("resolved on an arena")


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5)])
def test_two_color_samples_build_no_arena(lam):
    sampler = FriendCountSampler(lam, np.random.default_rng(27))
    sampler._arena = _no_arena
    sampler._resolve = _no_resolve
    outs = [sampler.sample() for _ in range(2 * _BATCH)]
    assert any(out.kind == "finite" and out.ell > 1 for out in outs)


def test_two_color_samples_build_no_k_generic_tables(monkeypatch):
    # k = 2 blocks read lambda, theta and the certificates only; the level
    # loop's tables are built on first use
    def refuse(*args):
        raise AssertionError("k-generic set-up")
    monkeypatch.setattr(ecbp, "extended_type_distribution", refuse)
    monkeypatch.setattr(ecbp, "_growth_table", refuse)
    hist = mc_component_size_distribution((1.5, 0.5), 5000,
                                          np.random.default_rng(38))
    assert hist.samples == sum(hist.finite_counts.values()) == 5000
    sampler = FriendCountSampler((1.5, 0.5), np.random.default_rng(39))
    assert not hasattr(sampler, "_entry_mask")
    with pytest.raises(AssertionError, match="k-generic"):
        sampler._arena(np.arange(1), np.array([1]), [])


@pytest.mark.parametrize("caps", [(40, 10**6), (1, 30), (3, 50), (0, 0),
                                  (40, 1)])
@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (1.2, 3.0),
                                 (1.5, 1.2), (40.0, 40.0)])
def test_cluster_growth_matches_the_level_loop(lam, caps):
    # at k = 2 the cluster loop makes the draws of the level loop, in its
    # order, and settles the same samples: from identical seeds, identical
    # codes and generator states over two consecutive blocks
    clusters, levels = (FriendCountSampler(lam, np.random.default_rng(37),
                                           *caps) for _ in range(2))
    for size in (_BATCH, _CHUNK):
        assert np.array_equal(clusters._grow_clusters(size),
                              levels._grow_levels(size))
    assert clusters._rng.bit_generator.state == levels._rng.bit_generator.state


def test_block_codes_become_the_shared_outcomes():
    codes = np.array([3, -1, 0, 1, 10**5, 1, 0, -1, 3, 10**5])
    outs = _code_outcomes(codes)
    one = FriendCountOutcome.finite(1)
    want = [FriendCountOutcome.finite(3), NODE_CAPPED, DEPTH_CAPPED,
            one, FriendCountOutcome.finite(10**5), one,
            DEPTH_CAPPED, NODE_CAPPED, FriendCountOutcome.finite(3),
            FriendCountOutcome.finite(10**5)]
    assert outs == want
    for got, again in ((outs[1], outs[7]), (outs[2], outs[6]),
                       (outs[0], outs[8]), (outs[4], outs[9]),
                       (outs[3], outs[5])):
        assert got is again
    assert outs[1] is NODE_CAPPED and outs[2] is DEPTH_CAPPED
    assert outs[3] is _code_outcomes(np.array([1]))[0]
    assert outs[4] is _code_outcomes(np.array([10**5]))[0]
    assert _code_outcomes(np.array([], dtype=np.int64)) == []


def test_block_outcome_table_is_sized_by_the_block():
    # a friend count near node_cap must not size the table: two codes take
    # a few hundred bytes, where a table up to the code took 16 MB
    codes = np.array([1, 10**6 - 1, -1, 10**6 - 1], dtype=np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outs = _code_outcomes(codes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert outs == [FriendCountOutcome.finite(1),
                    FriendCountOutcome.finite(10**6 - 1),
                    NODE_CAPPED, FriendCountOutcome.finite(10**6 - 1)]


def _count_route(u, theta):
    """The friend counts of a scripted k = 2 block whose cluster avoiding
    color 1 dies with N non-root nodes, while the cluster avoiding color 0
    holds F = 2 frontier nodes: at level 3 with N = 5 in the block's first
    half, at level 2 with N = 3 in its second half. rng.random returns u
    and rng.binomial(n, p) returns n - 1, and the binomial arguments are
    kept: one call for the whole block, in the order the samples died.
    Returns the friend counts of either half."""
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(28))
    sampler.theta = theta
    half = _BATCH // 2
    # the root's color-0 children (mask 0b10) have four color-0 children
    # or none; its color-1 child (mask 0b01) has two color-1 descendants
    # on the last level
    _scripted(sampler,
              [{(0b11, 0): 1, (0b11, 1): 1}, {(0b10, 0): 4, (0b01, 1): 1},
               {(0b01, 1): 2}],
              [{(0b11, 0): 3, (0b11, 1): 1}, {(0b01, 1): 2}])
    binomial = []
    sampler._rng = SimpleNamespace(
        random=lambda size: np.full(size, u),
        binomial=lambda n, p: binomial.append((n, p)) or n - 1)
    sampler._arena = _no_arena
    sampler._resolve = _no_resolve
    outs = [sampler.sample() for _ in range(_BATCH)]
    (n, p), = binomial
    assert n.tolist() == [3] * half + [5] * half
    assert p.tolist() == [theta[0]] * _BATCH
    return {out.ell for out in outs[:half]}, {out.ell for out in outs[half:]}


@pytest.mark.parametrize("theta", [(0.25, 0.5), (1.0, 0.5)])
def test_two_color_count_route_draws(theta):
    # B = 1 iff u >= (1 - theta_0)^F: one of the F frontier types has bit 0
    theta = np.array(theta)
    miss = ((1.0 - theta[[0]]) ** np.array([2]))[0]
    if miss > 0.0:
        assert _count_route(np.nextafter(miss, 0.0), theta) == ({1}, {1})
    assert _count_route(miss, theta) == ({1 + 4}, {1 + 2})


def test_type_law_marginals_are_the_avoiding_thetas():
    # bit i of an extended type is set with probability theta_i, the
    # counts route's chance that a node is i-avoiding connected to infinity
    rng = np.random.default_rng(29)
    for lam in rng.uniform(0.3, 6.0, (40, 2)).tolist():
        phat = extended_type_distribution(lam)
        theta = theta_avoid(lam)
        for i in range(2):
            marginal = phat[(np.arange(4) >> i) & 1 == 1].sum()
            assert abs(marginal - theta[i]) <= 1e-12


# -- numpy resolution against the recursion it replaced ----------------------

def _materialize(levels, k, uniform):
    """Per-node arena (masks, drawn, kids) of one sample's grown level
    totals, (mask, color, child mask, total) entries per level.

    Each (m, c) total is split among that level's mask-m nodes by one
    uniform parent choice per child. Nodes of every grown level have all
    admissible colors drawn; the last level is the unrevealed frontier.
    """
    full = (1 << k) - 1
    grown_drawn = [sum(1 << c for c in range(k) if m & ~(1 << c))
                   for m in range(full + 1)]
    last = len(levels)
    masks = [full]
    drawn = [grown_drawn[full] if last else 0]
    kids = {}
    # node ids of the current level per avoid-mask
    parents = {full: [0]}
    for depth, level in enumerate(levels, 1):
        frontier = depth == last
        nxt = {}
        for m, c, cm, t in level:
            ps = parents[m]
            per = [0] * len(ps)
            for _ in range(t):
                per[int(uniform() * len(ps))] += 1
            dv = 0 if frontier else grown_drawn[cm]
            first = len(masks)
            for u, n in zip(ps, per):
                if n:
                    base = len(masks)
                    masks.extend([cm] * n)
                    drawn.extend([dv] * n)
                    kids[(u, c)] = range(base, base + n)
            if not frontier:
                nxt.setdefault(cm, []).extend(range(first, len(masks)))
        parents = nxt
    return masks, drawn, kids


def _resolve_friends(k, masks, drawn, kids, dead, typed, reveal):
    """Friend count of one arena by the memoized recursion: typed(u) is the
    extended type of the unrevealed node u, and reveal(u, c) lists the types
    of the children that node u gets via its undrawn color c. v's
    j-avoiding component is infinite iff alive(j, top_j(v)), top_j(v) being
    v when v's parent edge has color j, else top_j of v's parent."""
    deadmask = sum(1 << i for i in dead)
    n0 = len(masks)
    up = {w: (u, c) for (u, c), ws in kids.items() for w in ws}

    def top(j, v):
        while v in up and up[v][1] != j:
            v = up[v][0]
        return v

    type_memo = {}
    alive_memo = {}

    def alive(j, u):
        key = (u, j)
        res = alive_memo.get(key)
        if res is not None:
            return res
        if drawn[u] == 0:
            if u not in type_memo:
                type_memo[u] = typed(u)
            res = bool((type_memo[u] >> j) & 1)
        else:
            # reveal any not-yet-drawn colors; their children are fully
            # unrevealed
            du = drawn[u]
            for c in range(k):
                if not (du >> c) & 1:
                    du |= 1 << c
                    base = len(masks)
                    for gamma in reveal(u, c):
                        type_memo[len(masks)] = gamma
                        masks.append(masks[u] & ~(1 << c))
                        drawn.append(0)
                    if len(masks) > base:
                        kids[(u, c)] = range(base, len(masks))
            drawn[u] = du
            res = any(alive(j, w) for c in range(k) if c != j
                      for w in kids.get((u, c), ()))
        alive_memo[key] = res
        return res

    count = sum(1 for v in range(n0)
                if masks[v] & deadmask == deadmask
                and all(alive(j, 0) and alive(j, top(j, v))
                        for j in range(k) if not (masks[v] >> j) & 1))
    # alive refers to itself through its closure cell
    del alive
    return count


def _arena_as_recursion_input(arena, k):
    """(masks, drawn, kids) of a one-sample arena, in the arena's node
    order."""
    _, mask, keep, parent, frontier, _ = arena
    full = (1 << k) - 1
    kids = {}
    for v in range(1, len(mask)):
        kids.setdefault((int(parent[v]), _edge_color(full, keep[v])),
                        []).append(v)
    drawn = [0 if f else sum(1 << c for c in range(k) if m & ~(1 << c))
             for m, f in zip(mask.tolist(), frontier.tolist())]
    return mask.tolist(), drawn, kids


@pytest.mark.parametrize("lam", [(0.7, 0.7, 0.7), (0.9, 0.8, 0.7),
                                 (0.9, 0.3, 0.3)])
def test_resolution_matches_the_recursion_on_fixed_draws(monkeypatch, lam):
    # 200 one-sample arenas of real growth; every frontier type and every
    # revealed child is fixed in advance, so both resolvers see one tree
    monkeypatch.setattr(ecbp, "_PASS_NODES", 1)
    sampler = FriendCountSampler(lam, np.random.default_rng(30))
    passes = []
    sampler._friend_counts = lambda arena, deadmasks: (
        passes.append((arena, deadmasks)) or np.ones(1, dtype=int))
    while len(passes) < 200:
        sampler.sample()
    k = len(lam)
    full = (1 << k) - 1
    one_bit = np.array([bin(m).count("1") == 1 for m in range(full + 1)])
    rng = np.random.default_rng(31)
    counts = []
    for arena, deadmasks in passes[:200]:
        mask, frontier = arena[1], arena[4]
        lone = np.flatnonzero(~frontier & one_bit[mask])
        types = rng.integers(0, full + 1, np.count_nonzero(frontier))
        revealed = rng.integers(0, 3, lone.size)
        kid_types = rng.integers(0, full + 1, revealed.sum())

        # the numpy pass, fed the fixed draws: the children of the lone
        # grown nodes, then the types of the frontier and of those children
        monkeypatch.setattr(sampler, "_rng", SimpleNamespace(
            poisson=lambda lam: revealed))
        def fixed_types(size):
            assert size == types.size + kid_types.size
            return np.concatenate([types, kid_types]).astype(mask.dtype)
        monkeypatch.setattr(sampler, "_types", fixed_types)
        ell = FriendCountSampler._friend_counts(sampler, arena, deadmasks)

        # the recursion, given the same types by node
        frontier_type = dict(zip(np.flatnonzero(frontier).tolist(),
                                 types.tolist()))
        kids_of = dict(zip(lone.tolist(),
                           np.split(kid_types, np.cumsum(revealed)[:-1])))
        dead = [i for i in range(k) if (int(deadmasks[0]) >> i) & 1]
        oracle = _resolve_friends(
            k, *_arena_as_recursion_input(arena, k), dead,
            frontier_type.__getitem__,
            lambda u, c: kids_of[u].tolist())
        assert ell.tolist() == [oracle]
        counts.append(oracle)
    assert max(counts) > 1  # the arenas hold other friends than the root


class _Recursion:
    """Friend counts by the recursion, on a per-node arena of one sample's
    level history with its own parent choices, frontier types and revealed
    children, all drawn from rng."""

    def __init__(self, sampler, rng):
        sampler._build_tables()
        self.sampler, self.rng = sampler, rng
        self.pairs = []

    def typed(self, _u=None):
        cdf = self.sampler._type_cdf
        return min(int(np.searchsorted(cdf, self.rng.random())), len(cdf) - 1)

    def reveal(self, _u, c):
        return [self.typed()
                for _ in range(self.rng.poisson(self.sampler.lam[c]))]

    def add(self, ell, i, deadmask, history):
        """Pairs ell with the recursion's count for sample i, grown over
        history, its dead clusters named by deadmask."""
        k = self.sampler.k
        entries = list(zip(*(col.tolist() for col in _growth_table(k))))
        levels = []
        for grown_ids, draws in history:
            row = draws[np.searchsorted(grown_ids, i)].tolist()
            levels.append([(m, c, cm, t) for (m, c, cm), t
                           in zip(entries, row) if t])
        arena = _materialize(levels, k, self.rng.random)
        dead = [j for j in range(k) if (deadmask >> j) & 1]
        self.pairs.append((ell, _resolve_friends(k, *arena, dead, self.typed,
                                                 self.reveal)))



def _paired_law_p_value(pairs):
    """Chi-square p-value of the two columns of paired friend counts, 6 and
    above pooled."""
    pairs = np.minimum(np.array(pairs), 6)
    table = np.array([np.bincount(col, minlength=7)[1:] for col in pairs.T])
    table = table[:, table.min(axis=0) >= 5]
    assert table.shape[1] >= 3
    return scipy.stats.chi2_contingency(table)[1]


@pytest.mark.parametrize("lam", [(0.7, 0.7, 0.7), (0.9, 0.8, 0.7)])
def test_resolution_law_matches_the_recursion(lam):
    # the samples the numpy pass resolves, resolved again by the recursion on
    # its own per-node arena of the same level totals, with independent draws
    sampler = FriendCountSampler(lam, np.random.default_rng(32))
    oracle = _Recursion(sampler, np.random.default_rng(33))
    resolve = sampler._resolve

    def both(codes, ids, deadmasks, depths, sizes, history):
        resolve(codes, ids, deadmasks, depths, sizes, history)
        for i, d, depth in zip(ids.tolist(), deadmasks.tolist(),
                               depths.tolist()):
            oracle.add(int(codes[i]), i, d, history[:depth])
    sampler._resolve = both
    for _ in range(10 * _BATCH):
        sampler.sample()
    assert _paired_law_p_value(oracle.pairs) > 0.01


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (1.5, 1.2)])
def test_two_color_count_law_matches_the_recursion(lam):
    # the k = 2 samples with other candidates than the root, settled on
    # their counts by the cluster loop, resolved again on their level
    # history by the numpy arena pass (of a third sampler) and by the
    # recursion; the history is that of the level loop of a twin sampler,
    # which makes the same draws and settles the same samples, once per
    # block and in the order they died
    sampler = FriendCountSampler(lam, np.random.default_rng(34))
    twin = FriendCountSampler(lam, np.random.default_rng(34))
    oracle = _Recursion(sampler, np.random.default_rng(35))
    resolver = FriendCountSampler(lam, np.random.default_rng(36))
    arena_pairs = []
    settled = []
    settle_clusters = sampler._settle_clusters
    sampler._settle_clusters = lambda *cols: (
        settled.append(settle_clusters(*cols)) or settled[-1])
    settle_dead = twin._settle_dead
    # per block of the twin: its dead samples' ids, counts, grown nodes and
    # levels grown, and the block's history
    deaths = []

    def recorded(codes, ids, cnt, grown, depths, history):
        deaths.append((ids, cnt, grown, depths, history))
        return settle_dead(codes, ids, cnt, grown, depths, history)
    twin._settle_dead = recorded
    for _ in range(60):
        codes = twin._grow_levels(_BATCH)
        assert np.array_equal(sampler._grow_clusters(_BATCH), codes)
        (ells,), ((ids, cnt, grown, depths, history),) = settled, deaths
        settled.clear()
        deaths.clear()
        assert np.array_equal(codes[ids], ells)
        deadmasks = (cnt == 0) @ np.array([1, 2])
        n = grown[np.arange(ids.size), deadmasks]
        other = (deadmasks != 0b11) & (n > 0)
        if other.any():
            arena = resolver._arena(ids[other], depths[other], history)
            arena_pairs.extend(zip(ells[other].tolist(),
                                   resolver._friend_counts(
                                       arena, deadmasks[other]).tolist()))
        # the law is compared given the history, so the recursion may skip
        # the rare histories of more than 500 nodes, which cost it most
        small = other & (grown.sum(axis=1) <= 500)
        for i, ell, d, depth in zip(ids[small].tolist(), ells[small].tolist(),
                                    deadmasks[small].tolist(),
                                    depths[small].tolist()):
            oracle.add(ell, i, d, history[:depth])
        if len(oracle.pairs) >= 3000:
            break
    assert len(oracle.pairs) >= 3000
    assert _paired_law_p_value(arena_pairs) > 0.01
    assert _paired_law_p_value(oracle.pairs) > 0.01


@pytest.mark.parametrize("z_kid, friends", [(0b010, 3), (0b000, 1)])
def test_link_to_infinity_through_a_sibling_branch(z_kid, friends):
    # k = 3: y (mask 0b101) hangs from the root by color 1, and w (0b001)
    # and z (0b100) hang from y by colors 2 and 0; r (0b110) and its line
    # hang from the root by color 0, so the cluster avoiding color 0 dies
    # at level 3 and the candidates are the root, y and w. w's
    # 1-avoiding component runs up to y and down z's branch: with z's
    # revealed child 1-avoiding alive (and w's not), y and w are friends,
    # although no descendant of w is 1-avoiding alive; without it, neither
    sampler = FriendCountSampler((0.7, 0.7, 0.7), np.random.default_rng(40))
    history = _history(sampler, [{(0b111, 0): 1, (0b111, 1): 1},
                                 {(0b110, 0): 1, (0b101, 2): 1,
                                  (0b101, 0): 1},
                                 {(0b110, 0): 1}])
    arena = sampler._arena(np.arange(1), np.array([3]), history)
    mask = arena[1]
    # root, y, r, w, z, r's child, its child on the frontier
    assert mask.tolist() == [0b111, 0b101, 0b110, 0b001, 0b100, 0b110, 0b110]
    # one revealed child each for w and z (the lone grown nodes); types:
    # the frontier node, then those children
    sampler._rng = SimpleNamespace(
        poisson=lambda lam: np.ones(lam.size, dtype=np.int64))
    sampler._types = lambda size: np.array([0b110, 0b100, z_kid], mask.dtype)
    assert sampler._friend_counts(arena, np.array([0b001])).tolist() == [
        friends]
    oracle = _resolve_friends(3, *_arena_as_recursion_input(arena, 3), [0],
                              {6: 0b110}.__getitem__,
                              lambda u, c: {3: [0b100], 4: [z_kid]}[u])
    assert oracle == friends


# -- scripted resolution: monotonicity in the frontier types ----------------

def _resolve_with_fixed_type(gamma_mask):
    """Friend count of a fixed two-color arena where every unrevealed node
    has the given extended type."""
    sampler = FriendCountSampler((2.0, 2.0), np.random.default_rng(0))
    sampler._types = lambda size: np.full(size, gamma_mask, dtype=np.uint8)
    # root (avoids both colors), one color-0 child and one color-1 child, both
    # on the frontier; the cluster avoiding color 0 died, so candidates are
    # the root and the color-1 child (mask 0b01)
    history = _history(sampler, [{(0b11, 0): 1, (0b11, 1): 1}])
    arena = sampler._arena(np.arange(1), np.array([1]), history)
    assert arena[1].tolist() == [0b11, 0b01, 0b10]
    return int(sampler._friend_counts(arena, np.array([0b01]))[0])


def test_resolution_hand_example():
    # with type 00 nothing is alive: the root keeps only itself; once bit 1
    # (blue-avoiding alive) is set on the frontier, the color-1 child joins
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

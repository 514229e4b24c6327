"""Closed-form engine tests. Derived values are checked against independent
oracles (damped fixed-point iteration, series summation, scipy, pinned
high-precision values) computed here rather than against the implementation
itself."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from caperc import analytic
from caperc.analytic import (
    DEFAULT_EPS_GRID,
    PSystemError,
    SeriesTruncationError,
    _type_law,
    classify_lambda,
    extended_type_distribution,
    f_infinity_generating_function,
    f_infinity_inclusion_exclusion,
    near_critical_constant,
    solve_p_system,
    subset_sums,
    survival_theta,
    theta_avoid,
    two_color_f_ell,
)
from caperc.params import LambdaVector
from oracles import (
    borel_pmf,
    color_strings,
    gf_route_by_layer_arrays,
    phi_eval,
    largest_roots_by_index,
    solve_p_system_by_full_tables,
    total_progeny_gf,
)


# -- oracles ----------------------------------------------------------------

def damped_theta(mu: float, tol: float = 1e-12) -> float:
    """Damped fixed-point iteration for theta = 1 - exp(-mu theta)."""
    theta = 0.9
    for _ in range(100000):
        nxt = 0.5 * theta + 0.5 * (1.0 - math.exp(-mu * theta))
        if abs(nxt - theta) < tol * 0.01:
            return nxt
        theta = nxt
    return theta


def submask_inversion(p, k: int) -> dict[int, float]:
    """Extended type law by direct inclusion-exclusion over the 3^k
    (mask, submask) pairs: p_hat*(A) = sum_{B subseteq A} (-1)^{|B|}
    (1 - p_{([k]\\A) u B})."""
    full = (1 << k) - 1
    out = {}
    for a in range(1 << k):
        val, b = 0.0, a
        while True:
            sign = -1.0 if bin(b).count("1") % 2 else 1.0
            val += sign * (1.0 - p[(full & ~a) | b])
            if b == 0:
                break
            b = (b - 1) & a
        out[a] = val
    return out


def string_gf_route(lam) -> float:
    """The generating-function density on color strings: sum over sign sets
    J of (-1)^{|J|} phi_eval(Phi_{k-2}) at z_s = prod_{i not in s} q_{s i}
    over the i whose string s i misses a color of J, where q_{s i} =
    exp(lambda_i (F_{s i}(1-) - 1))."""
    lam = LambdaVector(lam)
    k = lam.k
    strings = color_strings(k, k - 2)
    q = {}  # s -> [(the color s i misses, q_{s i}) for i not in s]
    for s in strings:
        rest = set(range(k)) - set(s)
        q[s] = [(min(rest - {i}), math.exp(lam[i] * (total_progeny_gf(
            sum(lam[c] for c in sorted(s + (i,))), 1.0) - 1.0)))
                for i in sorted(rest)]
    total = 0.0
    for jmask in range(1 << k):
        z = {s: math.prod(v for m, v in q[s] if (jmask >> m) & 1)
             for s in strings}
        total += (-1.0) ** bin(jmask).count("1") * phi_eval(lam, k - 2, z)
    return max(0.0, total)


def gf_regime_points(k: int, count: int, seed: int) -> list[tuple]:
    """Random fully supercritical intensities with the small-subset
    assumption: every (k-1)-sum above 1, every (k-2)-sum below 1."""
    rng = np.random.default_rng(seed)
    lo, hi = (1.05, 3.0) if k == 2 else (1.01 / (k - 1), 0.99 / (k - 2))
    points = [tuple(rng.uniform(lo, hi, k)) for _ in range(count)]
    for lam in points:
        regime = classify_lambda(lam)
        assert regime.fully_supercritical and regime.assumption_holds
    return points


THETA2 = damped_theta(2.0)  # 0.79681213...


# -- survival theta ---------------------------------------------------------

def test_theta_sub_and_critical_are_zero():
    assert survival_theta(1.0) == 0.0
    assert survival_theta(0.5) == 0.0


def test_theta2_against_damped_oracle():
    assert abs(THETA2 - 0.796812) < 1e-6
    assert abs(survival_theta(2.0) - THETA2) < 1e-9


def test_theta_fixed_point_identity():
    for mu in np.linspace(1.01, 10.0, 50):
        th = survival_theta(float(mu))
        assert 0.0 < th < 1.0
        assert abs(th - (1.0 - math.exp(-mu * th))) <= 1e-12


def test_theta_near_critical_precision():
    # theta(1+eps) = 2 eps - 8/3 eps^2 + O(eps^3); the expm1 Newton polish
    # must hold far more precision than the raw W closed form here
    for eps in (1e-3, 1e-5):
        th = survival_theta(1.0 + eps)
        expansion = 2.0 * eps - 8.0 / 3.0 * eps ** 2
        assert abs(th - expansion) < 10.0 * eps ** 3


@pytest.mark.parametrize("eps", [1e-7, 1e-8])
def test_theta_within_1e7_of_criticality(eps):
    expansion = 2.0 * eps - 8.0 / 3.0 * eps ** 2
    assert abs(survival_theta(1.0 + eps) - expansion) <= 1e-6 * eps


# -- regime classification --------------------------------------------------

def test_classify_examples():
    r = classify_lambda((2.0, 2.0))
    assert r.fully_supercritical and r.assumption_holds
    assert r.supercritical_indices == frozenset({0, 1})

    r = classify_lambda((0.4, 0.4, 0.4))
    assert r.fully_critical_subcritical and r.assumption_holds
    assert not r.fully_supercritical

    r = classify_lambda((0.9, 0.9, 0.2))
    assert r.fully_supercritical and r.assumption_holds

    # threshold case: lambda without color 2 sums to exactly 1.0
    r = classify_lambda((0.5, 0.5, 0.9))
    assert 0 in r.supercritical_indices and 2 not in r.supercritical_indices
    assert not r.fully_supercritical and not r.fully_critical_subcritical


def test_regime_and_relevance_agree_at_ties():
    # a grid on multiples of 0.05 with many subset sums at or next to 1,
    # among them exact ties such as (0.5, 0.5, 0.5) and (0.05, 0.95, 1.2)
    steps = [round(0.05 * i, 2) for i in range(1, 30)]
    grid = [(a, b) for a in steps for b in steps if abs(a - 1.0) < 0.3]
    grid += [(a, b, c) for a in steps for b in steps for c in steps
             if abs(a + b - 1.0) < 0.1]
    grid += [(0.5, 0.5, 0.5), (0.25, 0.25, 0.25, 0.25), (1.0, 1.0)]
    n_relevant = 0
    for lam in grid:
        relevant = solve_p_system(lam).relevant
        assert classify_lambda(lam).fully_supercritical == relevant, lam
        n_relevant += relevant
    assert 0 < n_relevant < len(grid)


def test_assumption_violation_detected():
    assert not classify_lambda((1.2, 0.4, 0.4)).assumption_holds
    assert not classify_lambda((0.6, 0.6, 0.3, 0.3)).assumption_holds


# -- the p_I system ---------------------------------------------------------

def test_p_system_k2_values():
    table = solve_p_system((2.0, 2.0))
    assert table.p[0] == 0.0
    assert abs(table.p[0b01] - THETA2) < 1e-9
    assert abs(table.p[0b10] - THETA2) < 1e-9
    p12_oracle = 1.0 - math.exp(-4.0 * THETA2)
    assert abs(table.p[0b11] - p12_oracle) < 1e-9
    assert table.relevant
    assert table.max_residual <= 1e-10


def test_p_system_direct_substitution_k3():
    lam = LambdaVector((0.9, 0.8, 0.7))
    table = solve_p_system(lam)
    full = 0b111
    for mask in range(8):
        c = sum(lam[j] * table.p[mask & ~(1 << j)]
                for j in range(3) if (mask >> j) & 1)
        mu = subset_sums(lam.lam)[full & ~mask]
        assert abs(table.p[mask]
                   - (1.0 - math.exp(-c - mu * table.p[mask]))) <= 1e-10


def test_p_system_non_supercritical_flagged():
    table = solve_p_system((0.8, 0.8))
    assert not table.relevant
    assert table.p[0b01] == 0.0 and table.p[0b11] == 0.0


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


# c = 0 (with mu <= 1 a zero root, mu = 1 the critical one), c = +inf (a
# root of 1) and c from 1e-6 to 5
_ROOT_C = st.sampled_from([0.0, math.inf]) | st.floats(1e-6, 5.0)
_ROOT_MU = st.sampled_from([1.0]) | st.floats(0.05, 8.0)


@given(st.lists(st.tuples(_ROOT_C, _ROOT_MU), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_in_place_newton_matches_the_index_newton(pairs, cols):
    c, mu = np.array(pairs).T
    # 1-d; (rows, cols) c against a (rows, 1) mu, as the generating-function
    # route calls it; and 0-d
    shifted = c[:, None] * np.linspace(1.0, 2.0, cols)
    for args in ((c, mu), (shifted, mu[:, None]), (c[0], mu[0]),
                 (0.0, mu)):
        roots = analytic._largest_roots(*args)
        expected = largest_roots_by_index(*args)
        assert roots.shape == expected.shape
        assert _same_bits(roots, expected)


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.lists(st.floats(min_value=0.02, max_value=5.0),
                       min_size=k, max_size=k)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_p_system_layers_match_the_full_table_solve(lam):
    try:
        expected = solve_p_system_by_full_tables(lam)
    except PSystemError:
        with pytest.raises(PSystemError):
            solve_p_system(lam)
        return
    table = solve_p_system(lam)
    assert _same_bits(table.p, expected.p)
    assert _same_bits(table.max_residual, expected.max_residual)
    assert table.relevant == expected.relevant


@pytest.mark.parametrize("k", [13, 14, 15, 16])
@pytest.mark.parametrize("base", [0.2, 1.0])
def test_p_system_layers_match_the_full_table_solve_at_large_k(k, base):
    # from k = 13 the middle layers are summed in blocks of masks, and from
    # k = 15 the layer tables are built for each call
    lam = [base + 0.01 * i for i in range(k)]
    table, expected = solve_p_system(lam), solve_p_system_by_full_tables(lam)
    assert _same_bits(table.p, expected.p)
    assert _same_bits(table.max_residual, expected.max_residual)


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (0.8, 0.8),
                                 (0.9, 0.8, 0.7), (0.1, 0.2, 0.3), (0.3,) * 8,
                                 (1e17, 1.0)])
def test_the_singleton_layer_is_theta_avoid(lam):
    table = solve_p_system(lam)
    assert _same_bits(table.theta, theta_avoid(lam))


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.2, 3.0), (0.9, 0.8, 0.7),
                                 (0.4, 0.45, 0.38, 0.42),
                                 (0.21, 0.22, 0.23, 0.24, 0.22, 0.21)])
def test_gf_route_given_the_table_is_the_gf_route(lam):
    table = solve_p_system(lam)
    assert _same_bits(f_infinity_generating_function(lam, table),
                      f_infinity_generating_function(lam))


@pytest.mark.parametrize("lam", [(0.4, 0.45, 0.38, 0.42),
                                 (0.21, 0.22, 0.23, 0.24, 0.22, 0.21)])
def test_layers_split_in_blocks_give_the_same_bits(lam, monkeypatch):
    # at k <= 12 every layer is one block; blocks of 4 masks, built for each
    # call, run the code paths of large k on the small layers
    table, gf = solve_p_system(lam), f_infinity_generating_function(lam)
    monkeypatch.setattr(analytic, "_LAYER_BLOCK", 4)
    monkeypatch.setattr(analytic, "KEPT_MAX_K", 0)
    assert max(len(m) for m, _, _ in analytic._layers(len(lam))) == 4
    assert _same_bits(solve_p_system(lam).p, table.p)
    assert _same_bits(f_infinity_generating_function(lam), gf)


@pytest.mark.parametrize("k", [1, 2, 7, analytic.KEPT_MAX_K,
                               analytic.KEPT_MAX_K + 1])
def test_layer_tables_are_kept_up_to_the_bound_and_read_only(k):
    layers = analytic._layers(k)
    assert (layers is analytic._layers(k)) == (k <= analytic.KEPT_MAX_K)
    blocks = list(layers)
    assert all(not a.flags.writeable for block in blocks for a in block)
    # each nonempty mask once, in blocks of one popcount, in increasing order
    masks = np.concatenate([m for m, _, _ in blocks])
    assert sorted(masks.tolist()) == list(range(1, 1 << k))
    heights = [len(colors) for _, colors, _ in blocks]
    assert heights == sorted(heights) and set(heights) == set(range(1, k + 1))


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (1.2, 3.0),
                                 (0.8, 0.8)])
def test_two_color_f_ell_given_the_table_is_two_color_f_ell(lam):
    table = solve_p_system(lam)
    assert _same_bits(two_color_f_ell(*lam, 40, table=table),
                      two_color_f_ell(*lam, 40))


# -- f*_inf routes ----------------------------------------------------------

def test_f_inf_zero_for_subcritical():
    assert f_infinity_inclusion_exclusion((0.8, 0.8)) == 0.0
    assert f_infinity_inclusion_exclusion((0.4, 0.4, 0.4)) == 0.0


def test_f_inf_k2_value_and_factorization():
    # for k = 2 the two avoiding clusters are independent, so
    # f*_inf = theta(lam_1) theta(lam_2); also matches the spec-rounded 0.6349
    val = f_infinity_inclusion_exclusion((2.0, 2.0))
    assert abs(val - THETA2 ** 2) < 1e-9
    assert abs(val - 0.634902) < 1e-4


def test_f_inf_bounds():
    for lam in [(2.0, 2.0), (1.5, 3.0), (0.9, 0.9, 0.9), (0.8, 0.9, 0.6)]:
        v = f_infinity_inclusion_exclusion(lam)
        theta_min = survival_theta(sum(lam) - np.array(lam)).min()
        assert 0.0 <= v <= theta_min + 1e-12


def test_f_inf_monotone_in_lambda():
    vals = [f_infinity_inclusion_exclusion((x, x))
            for x in (1.2, 1.5, 2.0, 3.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gf_route_requires_supercritical():
    with pytest.raises(ValueError):
        f_infinity_generating_function((0.8, 0.8))


@pytest.mark.parametrize("k", range(2, 7))
def test_gf_route_matches_string_oracle(k):
    for lam in gf_regime_points(k, 3, 500 + k):
        assert abs(f_infinity_generating_function(lam)
                   - string_gf_route(lam)) <= 1e-14


def _gf_regime(k: int):
    """Intensities drawn as gf_regime_points draws them, from hypothesis."""
    lo, hi = (1.05, 3.0) if k == 2 else (1.01 / (k - 1), 0.99 / (k - 2))
    return st.lists(st.floats(lo, hi), min_size=k, max_size=k)


@pytest.mark.parametrize("k", range(2, 11))
@given(data=st.data())
@settings(max_examples=5, deadline=None, derandomize=True)
def test_gf_route_keeps_the_bits_of_the_layer_array_route(k, data):
    # up to k = 10 the oracle takes every J in one column block, and the
    # values of all J go into one dot product here, so the sums agree
    lam = data.draw(_gf_regime(k))
    table = solve_p_system(lam)
    expected = gf_route_by_layer_arrays(lam, table)
    assert _same_bits(f_infinity_generating_function(lam, table), expected)
    assert _same_bits(f_infinity_generating_function(lam), expected)


def test_gf_route_agrees_with_the_layer_array_route_at_k_11():
    # at k = 11 the oracle sums each of its column blocks apart, so the
    # terms of the signed sum are added in another order
    for lam in gf_regime_points(11, 1, 1100):
        assert abs(f_infinity_generating_function(lam)
                   - gf_route_by_layer_arrays(lam)) <= 1e-14


# k = 11 takes its sign sets J in several column blocks
@pytest.mark.parametrize("k, count", [(7, 3), (8, 3), (11, 1)])
def test_gf_route_matches_inclusion_exclusion_beyond_the_strings(k, count):
    for lam in gf_regime_points(k, count, 700 + k):
        assert abs(f_infinity_generating_function(lam)
                   - f_infinity_inclusion_exclusion(lam)) <= 1e-12


# -- extended types ---------------------------------------------------------

def test_extended_types_k2():
    table = solve_p_system((2.0, 2.0))
    phat = extended_type_distribution((2.0, 2.0), table)
    assert abs(phat.sum() - 1.0) < 1e-12
    assert abs(phat[0b00] - (1.0 - table.p[0b11])) < 1e-12
    assert abs(phat[0b01] - (table.p[0b11] - table.p[0b10])) < 1e-12
    assert abs(phat[0b01] - 0.161910) < 1e-4


def _mc_extended_types_k2(lam, samples, rng):
    """MC of the joint extended type: per color i, survival of the pure
    opposite-color process, simulated by generation growth with a certified
    frontier threshold."""
    freqs = np.zeros(4)
    survive = np.empty((samples, 2), dtype=bool)
    for i in range(2):
        mu = lam[1 - i]
        theta = damped_theta(mu) if mu > 1 else 0.0
        cert = 1 if theta == 0 else max(1, math.ceil(
            math.log(1e-10) / math.log1p(-theta)))
        active = rng.poisson(mu, samples)
        status = np.full(samples, -1, dtype=np.int8)  # -1 growing
        status[active == 0] = 0
        if theta == 0.0:
            # subcritical: survival impossible
            while (status == -1).any():
                idx = np.flatnonzero(status == -1)
                nxt = rng.poisson(mu * active[idx])
                active[idx] = nxt
                status[idx[nxt == 0]] = 0
            survive[:, i] = False
            continue
        status[active >= cert] = 1
        guard = 0
        while (status == -1).any():
            idx = np.flatnonzero(status == -1)
            nxt = rng.poisson(mu * active[idx])
            active[idx] = nxt
            status[idx[nxt == 0]] = 0
            status[idx[nxt >= cert]] = 1
            guard += 1
            assert guard < 10000
        survive[:, i] = status == 1
    # gamma bit i = i-avoiding alive = pure-other-color survival
    codes = survive[:, 0].astype(int) + 2 * survive[:, 1].astype(int)
    for g in range(4):
        freqs[g] = (codes == g).mean()
    return freqs


def test_extended_types_match_mc():
    rng = np.random.default_rng(42)
    samples = 10**5
    freqs = _mc_extended_types_k2((2.0, 2.0), samples, rng)
    phat = extended_type_distribution((2.0, 2.0))
    for g in range(4):
        se = math.sqrt(max(phat[g] * (1 - phat[g]), 1e-12) / samples)
        assert abs(freqs[g] - phat[g]) < 3.5 * se + 1e-9


def test_extended_types_subcritical_degenerate():
    phat = extended_type_distribution((0.8, 0.8))
    assert phat[0b00] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(2, 9))
def test_type_law_matches_submask_inversion(k):
    # scale 0.8 is fully subcritical, 1.3 fully supercritical, 1.0 mixed
    rng = np.random.default_rng(100 + k)
    regimes = set()
    for scale in (0.8, 0.8, 1.0, 1.0, 1.3, 1.3):
        lam = tuple(rng.uniform(0.9, 1.1, k) * scale / (k - 1))
        table = solve_p_system(lam)
        phat = extended_type_distribution(lam, table)
        # a read-only array indexed by type mask, like table.p
        assert isinstance(phat, np.ndarray) and not phat.flags.writeable
        assert phat.shape == (1 << k,)
        assert np.array_equal(phat, np.maximum(_type_law(table.p), 0.0))
        oracle = submask_inversion(table.p, k)
        assert max(abs(phat[a] - max(oracle[a], 0.0)) for a in oracle) <= 1e-13
        assert abs(phat.sum() - 1.0) <= 1e-13
        alternating = -sum((-1) ** bin(m).count("1") * table.p[m]
                           for m in range(1 << k))
        regime = classify_lambda(lam)
        regimes.add(regime.fully_supercritical)
        expected = max(alternating, 0.0) if regime.fully_supercritical else 0.0
        assert abs(f_infinity_inclusion_exclusion(lam, table)
                   - expected) <= 1e-13
    assert regimes == {True, False}


# -- color strings ----------------------------------------------------------

def test_string_counts_are_falling_factorials():
    assert color_strings(3, 0) == [()]
    assert len(color_strings(3, 2)) == 6
    assert len(color_strings(4, 3)) == 24
    assert color_strings(2, 1) == [(0,), (1,)]
    with pytest.raises(ValueError):
        color_strings(3, 4)


# -- Borel law and progeny GF -----------------------------------------------

def certified_borel_sum(mu: float, tail_tol: float = 1e-10) -> float:
    """Sum Borel(mu) pmf until the geometric tail bound drops below tail_tol."""
    ratio_bound = mu * math.exp(1.0 - mu)
    assert ratio_bound < 1.0
    total = 0.0
    m = 1
    while True:
        term = borel_pmf(mu, m)
        total += term
        if m > 5 and term * ratio_bound / (1.0 - ratio_bound) < tail_tol:
            return total
        m += 1
        assert m < 10**6


def test_borel_trivials():
    assert borel_pmf(0.5, 1) == pytest.approx(math.exp(-0.5))
    assert borel_pmf(0.0, 1) == 1.0
    assert borel_pmf(0.5, 2) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)


def test_borel_normalization():
    for mu in (0.2, 0.5, 0.8, 0.95):
        assert abs(certified_borel_sum(mu) - 1.0) < 1e-9


def test_total_progeny_gf_points():
    assert total_progeny_gf(0.5, 0.0) == 0.0
    assert total_progeny_gf(0.5, 1.0) == 1.0
    assert total_progeny_gf(2.0, 1.0) == pytest.approx(1.0 - survival_theta(2.0),
                                                       abs=1e-12)
    # series oracle at z = 0.5
    series = sum(borel_pmf(0.5, m) * 0.5 ** m for m in range(1, 200))
    assert abs(total_progeny_gf(0.5, 0.5) - series) < 1e-10


def test_total_progeny_gf_matches_scipy_lambert():
    # the closed form -W(-mu e^{-mu} z)/mu, principal branch, on a grid that
    # stays away from the branch point mu = z = 1
    mu, z = np.meshgrid([0.05, 0.3, 0.6, 0.9, 0.99, 1.5, 2.0, 5.0, 12.0],
                        [0.0, 0.01, 0.2, 0.5, 0.8, 0.9, 0.95])
    ref = -scipy.special.lambertw(-mu * np.exp(-mu) * z).real / mu
    assert np.abs(total_progeny_gf(mu, z) - ref).max() <= 1e-14


@pytest.mark.parametrize("mu,z", [(0.2, 1.0), (0.5, 0.9), (0.8, 1.0),
                                  (0.95, 0.7), (0.99, 0.5)])
def test_total_progeny_gf_matches_borel_series(mu, z):
    # sum_m Borel(mu, m) z^m; the terms fall at least as fast as
    # (mu e^{1-mu} z)^m, at most 0.98^m here, so 2000 terms leave < 1e-16
    series = math.fsum(borel_pmf(mu, m) * z ** m for m in range(1, 2000))
    assert abs(total_progeny_gf(mu, z) - series) <= 1e-14


def test_total_progeny_gf_pinned_near_criticality():
    # G at mu = 1 - 1e-6, z = 1 - 1e-9 (the nearest doubles), solved once
    # with mpmath at 50 digits; the Lambert W closed form loses about 1e-13
    # to cancellation here
    g = total_progeny_gf(1.0 - 1e-6, 1.0 - 1e-9)
    assert abs(g - 0.999956268085386534644811) <= 1e-15


@given(st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_total_progeny_gf_residual_property(mu, z):
    g = total_progeny_gf(mu, z)
    assert 0.0 <= g <= 1.0
    assert abs(g - z * math.exp(mu * (g - 1.0))) <= 1e-15 * (1.0 + mu)


def test_array_equals_scalar_elementwise():
    # an entry stops on its own Newton steps, whatever the other entries do
    rng = np.random.default_rng(7)
    mu, z = rng.uniform(0.1, 3.0, 2000), rng.uniform(0.0, 1.0, 2000)
    z[:100], z[100:110] = 1.0, 0.0
    g = total_progeny_gf(mu, z)
    assert [total_progeny_gf(float(m), float(x))
            for m, x in zip(mu, z)] == g.tolist()
    assert total_progeny_gf(mu[:, None], z[:3]).shape == (2000, 3)
    theta = survival_theta(mu)
    assert [survival_theta(float(m)) for m in mu] == theta.tolist()
    assert isinstance(total_progeny_gf(0.5, 0.5), float)
    assert isinstance(survival_theta(2.0), float)


@pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 0.5), (0.1, 0.2, 0.3),
                                 (0.9, 0.8, 0.7, 0.6), (1e17, 1.0),
                                 (1e308, 2.0)])
def test_theta_avoid_sums_the_other_colors(lam):
    # theta of the other colors' sum, added in increasing color order as
    # subset_sums adds them; the total minus lambda_i would cancel to 0 at
    # (1e17, 1) and (1e308, 2)
    full = (1 << len(lam)) - 1
    others = subset_sums(np.array(lam))[full ^ (1 << np.arange(len(lam)))]
    assert theta_avoid(lam).tolist() == survival_theta(others).tolist()
    assert theta_avoid(LambdaVector(lam)).tolist() == [
        survival_theta(sum(lam[:i] + lam[i + 1:])) for i in range(len(lam))]


# -- Phi recursion ----------------------------------------------------------

def test_phi0_identity():
    for z in (0.0, 0.3, 1.0):
        assert phi_eval((2.0, 2.0), 0, {(): z}) == z


def test_phi_at_one_is_one():
    for lam, h in [((0.9, 0.9, 0.9), 1), ((0.3, 0.3, 0.3, 0.3), 1),
                   ((0.3, 0.3, 0.3, 0.3), 2)]:
        z = {s: 1.0 for s in color_strings(len(lam), h)}
        assert phi_eval(lam, h, z) == pytest.approx(1.0, abs=1e-12)


def test_phi_dimension_mismatch():
    with pytest.raises(ValueError):
        phi_eval((0.9, 0.9, 0.9), 1, {(0,): 0.5, (1,): 0.5})


# -- two-color series -------------------------------------------------------

def test_two_color_subcritical_is_point_mass():
    f_ell = two_color_f_ell(0.5, 0.5, 10)
    assert f_ell[0] == pytest.approx(1.0, abs=1e-9)
    for ell in (2, 3, 10):
        assert f_ell[ell - 1] == pytest.approx(0.0, abs=1e-9)


def test_two_color_asymmetric_sums_to_one():
    lam_r, lam_b = 1.7, 2.4
    f_inf = f_infinity_inclusion_exclusion((lam_r, lam_b))
    total = f_inf + sum(two_color_f_ell(lam_r, lam_b, 219))
    assert abs(total - 1.0) < 1e-6


def test_two_color_f_ell_prefixes_agree():
    # each ell's series is cut on its own tail bound, whatever ell_max is
    f_ell = two_color_f_ell(1.7, 2.4, 12)
    assert [two_color_f_ell(1.7, 2.4, m)[-1] for m in range(1, 13)] == f_ell
    with pytest.raises(ValueError, match="ell_max"):
        two_color_f_ell(1.7, 2.4, 0)


def test_series_truncation_error_reported(monkeypatch):
    # mu = 1, q = 0: terms decay like m^{-3/2}, so the certified geometric
    # tail bound (~ m^{-1/2}) can never reach 1e-12 within the term budget
    monkeypatch.setattr(analytic, "SERIES_MAX_TERMS", 5000)
    with pytest.raises(SeriesTruncationError, match="within 5000 terms"):
        analytic._borel_binomial_series(1.0, 0.0, 1)


# -- near-critical constant -------------------------------------------------

def test_near_critical_diagnostics_monotone():
    _, diag = near_critical_constant(2, DEFAULT_EPS_GRID)
    assert diag.monotone
    assert len(diag.ratios) == len(DEFAULT_EPS_GRID)


def test_near_critical_noise_floors():
    for k in (2, 3, 4, 5):
        grid = (1e-3, 5e-4)
        _, diag = near_critical_constant(k, grid)
        for eps, floor in zip(grid, diag.noise_floors):
            lam = [(1.0 + eps) / (k - 1)] * k
            p_max = max(solve_p_system(lam).p)
            assert floor == 2 ** k * math.ulp(p_max) / eps ** k
        assert all(f <= 1e-4 * r for f, r in zip(diag.noise_floors,
                                                  diag.ratios))


def test_near_critical_grid_validation():
    with pytest.raises(ValueError):
        near_critical_constant(3, (2.0, 1.0))  # violates the assumption
    with pytest.raises(ValueError):
        near_critical_constant(2, (1e-3, 1e-2))  # not decreasing

"""Closed-form engine: survival probabilities, the p_I system, generating
functions, the Borel law, exact two-color friend-count probabilities, and
the near-critical constant C(k).

Conventions used throughout:
  * color subsets I of [k] are k-bit integer masks (bit i = color i in I)
  * extended type vectors gamma are k-bit masks as well (bit i = "i-avoiding
    connected to infinity")
  * theta_i denotes the survival probability of the Poisson branching process
    whose mean is the total intensity of all colors except i.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .params import LambdaVector, as_lambda


# ---------------------------------------------------------------------------
# Subset tables and the fixed-point Newton iteration
# ---------------------------------------------------------------------------

def subset_sums(values) -> np.ndarray:
    """sums[m] = the sum of values[i] over the bits i of mask m, added in
    increasing i; subset_sums([1] * k) are the popcounts."""
    sums = np.zeros(1 << len(values), dtype=np.asarray(values).dtype)
    for i, x in enumerate(values):
        sums[1 << i:2 << i] = sums[:1 << i] + x
    return sums


def _largest_roots(c, mu) -> np.ndarray:
    """Largest root in [0, 1] of p = -expm1(-c - mu p), elementwise over the
    broadcast of c >= 0 and mu > 0: exactly 0 when c = 0 and mu <= 1, and
    exactly 1 when c = +inf. The right-hand side is concave, so Newton from
    p = 1 decreases monotonically to the root; an entry stops at its first
    step that does not decrease it, which cannot cycle at the ulp level. The
    expm1 form is conditioned at machine precision, also near criticality.
    Each step runs over the whole array in preallocated buffers: a stopped
    entry takes the same step again, which again does not decrease it."""
    c, mu = np.broadcast_arrays(np.asarray(c, dtype=float), mu)
    shape = c.shape
    neg_c, mu = -c.ravel(), mu.ravel()
    p = np.where((neg_c == 0.0) & (mu <= 1.0), 0.0, 1.0)
    down = p == 1.0
    x, e, new = np.empty(p.size), np.empty(p.size), np.empty(p.size)
    # a zero root at mu = 1 steps by 0/0 = nan, which does not decrease it
    with np.errstate(invalid="ignore"):
        while np.count_nonzero(down):
            np.multiply(mu, p, out=x)
            np.subtract(neg_c, x, out=x)  # x = -c - mu p
            np.expm1(x, out=new)
            np.negative(new, out=new)
            np.subtract(new, p, out=new)  # -expm1(x) - p
            np.exp(x, out=e)
            np.multiply(mu, e, out=e)
            np.subtract(e, 1.0, out=e)  # mu exp(x) - 1
            np.divide(new, e, out=new)
            np.subtract(p, new, out=new)
            np.less(new, p, out=down)
            np.copyto(p, new, where=down)
    return p.reshape(shape)


def survival_theta(mu) -> float | np.ndarray:
    """Survival probability of a Poisson(mu) branching process, elementwise
    (a float gives a float, an array an array): 0 for mu <= 1, otherwise the
    root in (0,1) of theta = 1 - exp(-mu theta), the p_I layer root at c = 0."""
    if not np.all(np.asarray(mu) > 0.0):
        raise ValueError("survival_theta: mu must be positive")
    theta = _largest_roots(0.0, mu)
    return float(theta) if theta.ndim == 0 else theta


def theta_avoid(lam) -> np.ndarray:
    """theta_i for every color i: survival at the sum of the other colors'
    intensities, added in increasing color order as subset_sums adds them
    (the total minus lambda_i cancels when lambda_i dominates)."""
    lam = as_lambda(lam)
    others = ((1 << lam.k) - 1) ^ (1 << np.arange(lam.k))
    return survival_theta(subset_sums(lam.lam)[others])


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeReport:
    fully_supercritical: bool
    fully_critical_subcritical: bool
    assumption_holds: bool
    supercritical_indices: frozenset[int]


def classify_lambda(lam) -> RegimeReport:
    """Exact threshold comparisons on the subset sums of a LambdaVector.

    * fully supercritical: lambda^{\\i} > 1 for every color i
    * fully critical-subcritical: lambda^{\\i} <= 1 for every color i
    * assumption: lambda_I < 1 for every subset I with |I| <= k-2
      (needs k >= 2; reported False for k = 1)
    """
    lam = as_lambda(lam)
    k = lam.k
    sums, bits = subset_sums(lam.lam), subset_sums([1] * k)
    full = (1 << k) - 1
    sup = frozenset(i for i in range(k) if sums[full ^ (1 << i)] > 1.0)
    small = (bits >= 1) & (bits <= k - 2)
    assumption = k >= 2 and bool(np.all(sums[small] < 1.0))
    return RegimeReport(len(sup) == k, not sup, assumption, sup)


def check_small_subsets(lam, what: str) -> None:
    """ValueError naming `what` unless the small-subset assumption holds."""
    if not classify_lambda(lam).assumption_holds:
        raise ValueError(f"{what} requires every color subset of size <= k-2 "
                         "to have total intensity < 1")


# ---------------------------------------------------------------------------
# The p_I system
# ---------------------------------------------------------------------------

class PSystemError(Exception):
    """Numerical-consistency failure while solving the p_I system."""


def _incoming(lam: LambdaVector, p: np.ndarray) -> np.ndarray:
    """c[m] = sum over colors j in m of lam_j p[m without j], every mask m,
    added in increasing j (the residuals' check of the layer sums)."""
    c = np.zeros_like(p)
    for j, x in enumerate(lam):
        c.reshape(-1, 2, 1 << j)[:, 1] += x * p.reshape(-1, 2, 1 << j)[:, 0]
    return c


# the layer tables are kept for each k up to this: at k = 14 they take
# 0.6 MB, and building them takes 4 of an uncached solve's 8-12 ms (2-core
# Xeon). Above it they are built for each call, of which an analytic run
# makes one: with this bound at 20, a run at k = 16 peaked at 52.7 MB
# against 50.4, and at k = 20 at 321 MB against 266.
KEPT_MAX_K = 14


# the masks of a layer are taken in blocks of at most this many, so that a
# solve at k = 16..20 peaks no higher than the full-table sums did
_LAYER_BLOCK = 1 << 10


def _layer_blocks(k: int):
    """(masks, colors, submasks) for the masks of each popcount h = 1..k in
    turn, at most _LAYER_BLOCK masks at a time, as read-only arrays; colors
    and submasks are (h, masks) arrays: column r lists the colors of
    masks[r] in increasing order, and masks[r] without each of them."""
    bits = subset_sums(np.ones(k, dtype=np.uint8))
    shifts = np.arange(k, dtype=np.int32)
    for h in range(1, k + 1):
        layer = np.flatnonzero(bits == h).astype(np.int32)
        for masks in np.split(layer, range(_LAYER_BLOCK, layer.size,
                                           _LAYER_BLOCK)):
            colors = np.nonzero((masks[:, None] >> shifts) & 1)[1]
            colors = colors.astype(np.uint8).reshape(-1, h).T.copy()
            arrays = masks, colors, masks ^ (1 << colors.astype(np.int32))
            for a in arrays:
                a.setflags(write=False)
            yield arrays


_kept_layers = cache(lambda k: tuple(_layer_blocks(k)))


def _layers(k: int):
    """_layer_blocks(k), kept as a tuple for each k up to KEPT_MAX_K and
    made on each call above it."""
    return _kept_layers(k) if k <= KEPT_MAX_K else _layer_blocks(k)


def _layer_incoming(x: np.ndarray, p: np.ndarray, colors: np.ndarray,
                    subs: np.ndarray) -> np.ndarray:
    """c[r] = sum over the colors j of masks[r] of x_j p[masks[r] without j],
    along any further axes of p. The terms are added in increasing j, as
    _incoming adds them (0.0 + t = t), so the sums are _incoming's to the
    bit; one add per color beats np.cumsum, which is slow on short axes.
    Each color's terms are gathered in turn, so no (h, masks, ...) array of
    all the terms is held."""
    w = x[colors].reshape(colors.shape + (1,) * (p.ndim - 1))
    c = p[subs[0]] * w[0]
    for s, w_s in zip(subs[1:], w[1:]):
        c += p[s] * w_s
    return c


def _solve_layers(x: np.ndarray, mu: np.ndarray, p: np.ndarray,
                  first: int) -> np.ndarray:
    """Solve the strict-subset layers first..k-1 of p in place, along any
    further axes of p, each from the layer below: p[masks] takes the largest
    root at c = _layer_incoming and the intensity mu[masks] outside each
    mask. Returns c of the full set, the last layer."""
    k = len(x)
    for masks, colors, subs in _layers(k):
        if len(colors) >= first:
            c = _layer_incoming(x, p, colors, subs)
            if len(colors) < k:
                p[masks] = _largest_roots(
                    c, mu[masks].reshape((-1,) + (1,) * (p.ndim - 1)))
    return c[0]


def _residuals(lam: LambdaVector, p: np.ndarray) -> np.ndarray:
    """|p_I - (1 - exp(-sum_{j in I} lam_j p_{I\\{j}} - p_I lam_{[k]\\I}))|."""
    mu = subset_sums(lam.lam)[::-1]
    return np.abs(p + np.expm1(-_incoming(lam, p) - mu * p))


@dataclass(frozen=True)
class PTable:
    """Solved p_I table: p[mask] = P(root is i-avoiding connected to infinity
    for at least one i in I), for every subset mask I of [k]."""

    lam: LambdaVector
    p: np.ndarray
    relevant: bool
    max_residual: float

    @property
    def k(self) -> int:
        return self.lam.k

    @property
    def theta(self) -> np.ndarray:
        """theta_i = p_{i} for every color i, theta_avoid's values to the
        bit: the singleton layer is the same root at c = 0."""
        return self.p[1 << np.arange(self.k)]


def solve_p_system(lam) -> PTable:
    """Solve the p_I fixed-point system one popcount layer at a time.

    Each strict subset takes the largest root of p = -expm1(-c - mu p),
    where c comes from the layer below and mu is the intensity outside I
    (for c = 0 the survival probability theta(mu), the probabilistic root
    since mu never exceeds lambda^{\\i} for i in I); the full set uses the
    closed exponential form. The table is produced for any positive lambda;
    `relevant` records whether all nonempty p_I are positive, which holds
    exactly in the fully supercritical regime (p_I < 1 always holds, though
    p_I may round to 1.0).
    """
    lam = as_lambda(lam)
    p = np.zeros(1 << lam.k)
    c = _solve_layers(np.array(lam.lam), subset_sums(lam.lam)[::-1], p, 1)
    p[-1] = -math.expm1(-c)
    max_res = float(_residuals(lam, p).max())
    if max_res > 1e-8:
        raise PSystemError(f"p_I residual {max_res:.3e} exceeds 1.0e-08")
    relevant = bool(np.all(p[1:] > 0.0))
    return PTable(lam, p, relevant=relevant, max_residual=max_res)


def _type_law(p: np.ndarray) -> np.ndarray:
    """phat[A] = [A empty] - M(p)(complement of A), where M is the superset
    Moebius transform, M(p)(S) = sum_{T >= S} (-1)^{|T \\ S|} p_T, taken in
    one pass per color. phat[full] = -M(p)(empty) is the alternating sum."""
    m = p.copy()
    for i in range(len(p).bit_length() - 1):
        pairs = m.reshape(-1, 2, 1 << i)
        pairs[:, 0] -= pairs[:, 1]
    phat = -m[::-1]
    phat[0] += 1.0
    return phat


def f_infinity_inclusion_exclusion(lam, table: PTable | None = None) -> float:
    """Density of the infinite friend class via the alternating-subset sum.

    Mathematically sum_I (-1)^{|I|} (1 - p_I); evaluated as
    -sum_I (-1)^{|I|} p_I since the constant parts cancel exactly (this keeps
    full precision near criticality where the result is ~eps^k).
    Returns exactly 0 outside the fully supercritical regime.
    """
    table = table or solve_p_system(lam)
    # p_{i} > 0 exactly when lambda^{\i} > 1, the comparison of classify_lambda
    if not table.theta.all():
        return 0.0
    return max(0.0, float(_type_law(table.p)[-1]))


def extended_type_distribution(lam, table: PTable | None = None) -> np.ndarray:
    """Joint law of the extended type vector: read-only phat[gamma-mask].

    p_hat*(alive exactly on A) = sum_{B subseteq A} (-1)^{|B|}
    (1 - p_{([k]\\A) u B}).  Tiny negative round-off is clamped at 0.
    """
    table = table or solve_p_system(lam)
    phat = _type_law(table.p)
    worst = int(np.argmin(phat))
    if phat[worst] < -1e-10:
        raise PSystemError(f"extended type inversion gave {phat[worst]:.3e} "
                           f"for mask {worst:b}")
    np.maximum(phat, 0.0, out=phat).setflags(write=False)
    return phat


# ---------------------------------------------------------------------------
# Borel law and the generating-function route to f_inf
# ---------------------------------------------------------------------------

def borel_log_pmf(mu: float, m: int) -> float:
    """log of the Borel(mu) pmf e^{-mu m}(mu m)^{m-1}/m!."""
    if m < 1:
        raise ValueError("borel: m must be >= 1")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("borel: mu must lie in [0, 1]")
    if mu == 0.0:
        return 0.0 if m == 1 else -math.inf
    return -mu * m + (m - 1) * math.log(mu * m) - math.lgamma(m + 1)


def f_infinity_generating_function(lam, table: PTable | None = None) -> float:
    """Density of the infinite friend class via the Phi_{k-2} route.

    Alternating sum over color subsets J of Phi_{k-2} evaluated at arguments
    z_s = prod_{i not in set(s)} q_{J, s i}, where q_{J, s i} is
    exp(lambda_i (F_{s i}(1-) - 1)) = exp(-lambda_i theta(lambda^{\\m})) when
    the one color m missing from set(s i) belongs to J, and 1 otherwise.
    theta is read from `table`, which is solved here when none is given.

    The recursion runs on color sets, not strings, with the 2^k sets J as
    the columns of one table. This is exact: z_s depends on s only through
    the two colors it misses, and each level of Phi substitutes at s a value
    built from mu = lambda_{set(s i)} and the value at s i, so by induction
    every level's value at s depends only on set(s). The k!/(k-h)! strings
    of level h collapse to its C(k, h) sets, and a level is one elementwise
    root of G = z exp(mu (G - 1)) over a (sets, J) array, taken in log z.
    Indexed by the colors U missing from set(s), that root is the p_I
    system's: p = 1 - G is the layer root at c = -log z = sum over i in U
    of lambda_i p[U without i], and mu is the intensity outside U. So the
    levels are solve_p_system's layers 2..k, solved by its own loop on a
    (2^k, J) table whose singleton rows are p[{m}] = theta_m [m in J] in
    place of theta_m, and the last layer's c gives Phi's value exp(-c) for
    each J. The columns J are independent, so they are taken in blocks
    that keep the table within 4 MB; their values are gathered, and the
    signed sum is one dot product.
    """
    lam = as_lambda(lam)
    k = lam.k
    if not classify_lambda(lam).fully_supercritical:
        raise ValueError("generating-function route requires fully supercritical lambda")
    check_small_subsets(lam, "the generating-function route")
    theta = (table or solve_p_system(lam)).theta
    x, mu = np.array(lam.lam), subset_sums(lam.lam)[::-1]
    colors, phi = np.arange(k), np.empty(1 << k)
    width = max(1, (1 << 19) >> k)
    for start in range(0, 1 << k, width):
        js = np.arange(start, min(start + width, 1 << k))
        p = np.zeros((1 << k, js.size))
        p[1 << colors] = theta[:, None] * ((js >> colors[:, None]) & 1)
        phi[js] = np.exp(-_solve_layers(x, mu, p, 2))
    signs = 1 - 2 * (subset_sums([1] * k) & 1)  # (-1)^|J|
    return max(0.0, float(signs @ phi))


# ---------------------------------------------------------------------------
# Exact two-color friend-count probabilities
# ---------------------------------------------------------------------------

class SeriesTruncationError(Exception):
    """Certified tail bound could not be brought below tolerance."""


SERIES_MAX_TERMS = 200_000  # the most a two-color series takes to certify


def _borel_binomial_series(mu: float, q: float, ell: int) -> float:
    """sum_{m >= ell} C(m-1, ell-1) q^{ell-1} (1-q)^{m-ell} Borel(mu, m),
    truncated when the certified geometric tail bound drops below 1e-12.

    Term-ratio bound: Borel(mu, m+1)/Borel(mu, m) <= mu e^{1-mu}, and the
    binomial-weight ratio is (m/(m-ell+1)) (1-q) which is nonincreasing in m;
    once their product r < 1 the remaining tail is <= term * r / (1-r).
    """
    if mu == 0.0:
        return 1.0 if ell == 1 else 0.0
    if q == 1.0:
        return math.exp(borel_log_pmf(mu, ell))  # only m = ell survives
    log_q = math.log(q) if q > 0.0 else None
    log_1mq = math.log1p(-q)
    total = 0.0
    for m in range(ell, SERIES_MAX_TERMS + 1):
        lt = borel_log_pmf(mu, m) + (m - ell) * log_1mq
        if ell > 1:
            if log_q is None:
                return 0.0  # q == 0 kills every term with ell >= 2
            lt += (math.lgamma(m) - math.lgamma(ell) - math.lgamma(m - ell + 1)
                   + (ell - 1) * log_q)
        term = math.exp(lt)
        total += term
        if m >= max(2 * ell, 8):
            r = mu * math.exp(1.0 - mu) * (1.0 - q) * (m + 1) / (m - ell + 2)
            if r < 1.0 and term * r / (1.0 - r) < 1e-12:
                return total
    raise SeriesTruncationError("two-color series tail not certified below "
                                f"1.0e-12 within {SERIES_MAX_TERMS} terms")


def two_color_f_ell(lambda_red: float, lambda_blue: float, ell_max: int,
                    table: PTable | None = None) -> list[float]:
    """Exact probabilities f_1..f_ell_max of exactly ell friends, k = 2.

    Three parts: the isolated-type atom at ell = 1, plus two Borel-weighted
    binomial series (one per color playing the finite-cluster role), each
    cut for every ell where its certified tail bound drops below 1e-12.
    theta_red = theta(lambda_red) is the survival probability of the pure-red
    process, i.e. of blue-avoiding connection to infinity. theta and the
    type law are read from `table`, which is solved here when none is given.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    lam = LambdaVector((lambda_red, lambda_blue))
    table = table or solve_p_system(lam)
    # theta_i avoids color i: table.theta lists (theta_blue, theta_red)
    theta_blue, theta_red = table.theta.tolist()
    # gamma bit 0 = red-avoiding (pure blue) alive, bit 1 = blue-avoiding
    # alive: p10 (0b01) is a finite pure-red cluster, p01 (0b10) pure-blue
    p00, p10, p01 = extended_type_distribution(lam, table)[:3].tolist()
    mu_red = lambda_red * (1.0 - theta_red)
    mu_blue = lambda_blue * (1.0 - theta_blue)
    f_ell = []
    for ell in range(1, ell_max + 1):
        out = p00 if ell == 1 else 0.0
        if p10 > 0.0:
            out += p10 * _borel_binomial_series(mu_red, theta_blue, ell)
        if p01 > 0.0:
            out += p01 * _borel_binomial_series(mu_blue, theta_red, ell)
        f_ell.append(out)
    return f_ell


# ---------------------------------------------------------------------------
# Near-critical constant C(k)
# ---------------------------------------------------------------------------

DEFAULT_EPS_GRID = (1e-2, 5e-3, 2e-3, 1e-3)


def check_eps_grid(k: int, eps_grid) -> tuple[float, ...]:
    """The eps grid as floats, or ValueError unless it has at least two
    positive, finite, strictly decreasing entries whose eps^k is a normal
    float (neither zero nor infinite), and, for k >= 3, keeps every
    (k-2)-subset of the intensities (1+eps)/(k-1) below total 1."""
    grid = tuple(float(e) for e in eps_grid)
    if len(grid) < 2 or any(not 0 < e < math.inf for e in grid) or any(
            a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid needs at least two positive, finite, "
                         "strictly decreasing entries")
    # compared in logs, so that the check itself cannot overflow
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    if not all(lo <= k * math.log(e) <= hi for e in grid):
        raise ValueError(f"eps grid needs eps^{k} within the float range "
                         f"[{sys.float_info.min!r}, {sys.float_info.max!r}]")
    if k >= 3 and grid[0] >= 1.0 / (k - 2):
        raise ValueError("eps grid violates the small-subset assumption "
                         f"(eps < {1.0 / (k - 2)!r} for k = {k})")
    return grid


@dataclass(frozen=True)
class NearCriticalDiagnostics:
    """noise_floors[j] = 2^k ulp(max_I p_I) / eps_j^k bounds the rounding
    error of ratios[j]: the alternating sum cancels 2^k terms of size up to
    max_I p_I down to about C(k) eps^k."""

    eps_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    monotone: bool
    pair_extrapolants: tuple[float, ...]
    noise_floors: tuple[float, ...]


def near_critical_constant(k: int, eps_grid=DEFAULT_EPS_GRID):
    """Estimate C(k) = lim f*_inf(eps)/eps^k for homogeneous intensities
    (1+eps)/(k-1) via the eps grid and order-1 Richardson extrapolation.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    grid = check_eps_grid(k, eps_grid)
    ratios, floors = [], []
    for eps in grid:
        lam = LambdaVector([(1.0 + eps) / (k - 1)] * k)
        table = solve_p_system(lam)
        ratios.append(f_infinity_inclusion_exclusion(lam, table) / eps ** k)
        floors.append(2 ** k * math.ulp(table.p.max()) / eps ** k)
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    monotone = all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
    pairs = tuple(
        (e1 * r2 - e2 * r1) / (e1 - e2)
        for (e1, r1), (e2, r2) in zip(zip(grid, ratios), zip(grid[1:], ratios[1:]))
    )
    estimate = pairs[-1]
    return estimate, NearCriticalDiagnostics(grid, tuple(ratios), monotone,
                                             pairs, tuple(floors))

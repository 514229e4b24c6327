"""Edge-colored Poisson branching-process estimators: lazy core sampling,
friend counting with exact frontier typing, and Monte Carlo estimators of the
friend-count distribution and of the infinite-class density."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import (
    classify_lambda,
    extended_type_distribution,
    survival_theta,
)
from .params import LambdaVector, as_lambda

# per-sample probability that the certified-alive shortcut or a typing
# shortcut mislabels an outcome; far below MC noise at any feasible sample
# count
CERT_EPS = 1e-12


class CoreOverflow(Exception):
    """Core exploration hit the node cap; the sample is censored."""


class _Stream:
    """Buffered draws: fill(size) returns `size` draws as a numpy array.

    The cost per draw is flat from about 1024 draws per fill up, while a
    larger buffer only makes each sampler slower to build.
    """

    __slots__ = ("fill", "buf", "_vals", "_i")

    def __init__(self, fill, buf: int = 1024):
        self.fill = fill
        self.buf = buf
        self._vals = fill(buf).tolist()
        self._i = 0

    def draw(self):
        i = self._i
        if i >= self.buf:
            self._vals = self.fill(self.buf).tolist()
            i = 0
        self._i = i + 1
        return self._vals[i]


# ---------------------------------------------------------------------------
# Core sampling (rho, b) by lazy chronology-state growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreSample:
    rho: int
    b: tuple[int, ...]
    string_counts: dict[tuple[int, ...], int]


class CoreSampler:
    """Samples the joint law of (rho(r), b(r)) on the branching-process tree.

    Grows only core nodes (root-path chronology of length <= k-2); children
    introducing the (k-1)-th distinct color are counted into the boundary
    vector and never expanded. Exact on trees because each node's chronology
    string is determined by its unique root path.
    """

    def __init__(self, lam, rng: np.random.Generator, node_cap: int = 10**6):
        self.lam = as_lambda(lam)
        if not classify_lambda(self.lam).assumption_holds:
            raise ValueError(
                "core sampling requires every color subset of size <= k-2 "
                "to have total intensity < 1")
        self.k = self.lam.k
        self.node_cap = node_cap
        self._streams = [_Stream(partial(rng.poisson, self.lam[c]))
                         for c in range(self.k)]

    def sample(self) -> CoreSample:
        k = self.k
        full = (1 << k) - 1
        streams = self._streams
        rho = 0
        b = [0] * k
        counts: dict[tuple[int, ...], int] = {}
        queue: list[tuple[tuple[int, ...], int]] = [((), 0)]
        while queue:
            s, smask = queue.pop()
            rho += 1
            if rho > self.node_cap:
                raise CoreOverflow(f"core node cap {self.node_cap} exceeded")
            counts[s] = counts.get(s, 0) + 1
            for c in range(k):
                nch = streams[c].draw()
                if nch == 0:
                    continue
                if (smask >> c) & 1:
                    queue.extend([(s, smask)] * nch)
                elif len(s) + 1 <= k - 2:
                    queue.extend([(s + (c,), smask | (1 << c))] * nch)
                else:
                    # boundary: the path now uses all colors but one
                    missing = full & ~(smask | (1 << c))
                    b[missing.bit_length() - 1] += nch
        return CoreSample(rho, tuple(b), counts)


def mc_f_infinity(lam, samples: int, rng: np.random.Generator,
                  node_cap: int = 10**6) -> tuple[float, float]:
    """Monte Carlo estimate of the infinite-class density: the sample mean of
    prod_i (1 - (1 - theta_i)^{b_i}) over i.i.d. core samples.

    Returns exactly (0.0, 0.0) outside the fully supercritical regime.
    """
    lam = as_lambda(lam)
    if not classify_lambda(lam).fully_supercritical:
        return 0.0, 0.0
    theta = [survival_theta(lam.lambda_without(i)) for i in range(lam.k)]
    miss = [1.0 - t for t in theta]
    sampler = CoreSampler(lam, rng, node_cap)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        b = sampler.sample().b
        val = 1.0
        for i in range(lam.k):
            val *= 1.0 - miss[i] ** b[i]
        total += val
        total_sq += val * val
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return mean, math.sqrt(var / samples)


def mc_string_subtree_counts(lam, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """(samples, k) array of the sizes of the length-1 chronology layers
    |R_(i)(r)|, vectorized across samples.

    Layer i is the total progeny of a Poisson(lambda_i) process started from
    Poisson(lambda_i) root children; generation sizes are drawn jointly via
    Poisson additivity. Requires every lambda_i < 1 so the layers are finite.
    """
    lam = as_lambda(lam)
    if any(x >= 1.0 for x in lam):
        raise ValueError("per-color intensities must be < 1")
    out = np.empty((samples, lam.k), dtype=np.int64)
    for i in range(lam.k):
        active = rng.poisson(lam[i], samples)
        total = active.copy()
        alive = np.flatnonzero(active)
        guard = 0
        while alive.size:
            nxt = rng.poisson(lam[i] * active[alive])
            total[alive] += nxt
            active[alive] = nxt
            alive = alive[nxt > 0]
            guard += 1
            if guard > 100_000:
                raise CoreOverflow("runaway subcritical layer growth")
        out[:, i] = total
    return out


def mc_phi1_estimate(lam, z: dict[tuple[int, ...], float], samples: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """MC estimate of E[prod_i z_(i)^{|R_(i)(r)|}] with its standard error."""
    lam = as_lambda(lam)
    zvec = np.array([z[(i,)] for i in range(lam.k)])
    if np.any(zvec <= 0.0) or np.any(zvec > 1.0):
        raise ValueError("z values must lie in (0, 1]")
    counts = mc_string_subtree_counts(lam, samples, rng)
    vals = np.exp(counts @ np.log(zvec))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Friend counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FriendCountOutcome:
    """finite(ell) or censored(reason), reason in {depth-cap, node-cap}."""

    kind: str  # "finite" | "censored"
    ell: int | None = None
    reason: str | None = None

    @staticmethod
    def finite(ell: int) -> "FriendCountOutcome":
        if ell < 1:
            raise ValueError("the root is always its own friend")
        return FriendCountOutcome("finite", ell=ell)

    @staticmethod
    def censored(reason: str) -> "FriendCountOutcome":
        if reason not in ("depth-cap", "node-cap"):
            raise ValueError("unknown censoring reason")
        return FriendCountOutcome("censored", reason=reason)


# a censored sample carries nothing but its reason, so every sample shares
# one outcome object per reason
DEPTH_CAPPED = FriendCountOutcome.censored("depth-cap")
NODE_CAPPED = FriendCountOutcome.censored("node-cap")


class FriendCountSampler:
    """Samples the root's friend count on the branching-process tree.

    Growth is restricted to nodes whose root path avoids at least one color
    (k-bit avoid-mask per node); color i's avoiding cluster is declared dead
    at the first level with no mask-bit-i node. Every member of a dead
    cluster is materialized by then, so friends are counted over the arena:
    v is a friend iff for every color i either the root path avoids i or both
    endpoints are i-avoiding connected to infinity through descendants.

    Growth is counts-first: a level is its node count per avoid-mask, and
    the children of all count_m nodes of mask m via color c number
    Poisson(lambda_c * count_m) by Poisson additivity. Censoring depends on
    these counts alone, so the per-node arena is built only once a cluster
    dies, by splitting each total among its parents with uniform parent
    choices (Poisson splitting: the same law as per-node draws).

    The alive_i flags are resolved by propagating through materialized
    children and drawing one memoized extended type per fully unrevealed
    node (typing is exact: the type is a function of the node's own subtree).
    When every cluster's frontier reaches a size whose total extinction
    probability is below CERT_EPS, the sample is censored immediately instead
    of growing to depth_cap; the mislabel probability is <= k * CERT_EPS.
    """

    def __init__(self, lam, rng: np.random.Generator,
                 depth_cap: int = 40, node_cap: int = 10**6):
        self.lam = as_lambda(lam)
        if not classify_lambda(self.lam).assumption_holds:
            raise ValueError(
                "friend counting requires every color subset of size <= k-2 "
                "to have total intensity < 1")
        self.k = self.lam.k
        self.depth_cap = depth_cap
        self.node_cap = node_cap
        self.theta = [survival_theta(self.lam.lambda_without(i))
                      for i in range(self.k)]
        self.cert = []
        for t in self.theta:
            if t <= 0.0:
                self.cert.append(None)  # this cluster dies almost surely
            else:
                self.cert.append(max(1, math.ceil(math.log(CERT_EPS)
                                                  / math.log1p(-t))))
        phat = extended_type_distribution(self.lam)
        gmasks = sorted(phat)
        cum = []
        acc = 0.0
        for gm in gmasks:
            acc += phat[gm]
            cum.append(acc)
        self._type_masks = gmasks
        self._type_cum = cum
        self._streams = [_Stream(partial(rng.poisson, self.lam[c]))
                         for c in range(self.k)]
        self._uniform = _Stream(rng.random)
        self._poisson = rng.poisson
        k = self.k
        self._full = full = (1 << k) - 1
        # per avoid-mask m: (color, child mask, intensity, buffered draw) for
        # every admissible color c, i.e. m & ~(1 << c) != 0
        self._growth = [
            [(c, m & ~(1 << c), self.lam[c], self._streams[c].draw)
             for c in range(k) if m & ~(1 << c)]
            for m in range(full + 1)]
        # per avoid-mask: the colors whose avoiding cluster it belongs to
        self._clusters = [[i for i in range(k) if (m >> i) & 1]
                          for m in range(full + 1)]
        # reveal state of a grown node: every admissible color drawn
        self._grown_drawn = [sum(1 << c for c, *_ in row)
                             for row in self._growth]

    def sample(self) -> FriendCountOutcome:
        k = self.k
        growth, clusters, cert = self._growth, self._clusters, self.cert
        certifiable = None not in cert
        poisson = self._poisson
        depth_cap, node_cap = self.depth_cap, self.node_cap
        # node count per avoid-mask on the current level
        counts = {self._full: 1}
        # per grown level: (mask, color, child mask, total) of each nonzero
        # total of children
        levels: list[list[tuple[int, int, int, int]]] = []
        nodes = 1
        while True:
            cnt = [0] * k
            for m, n in counts.items():
                for i in clusters[m]:
                    cnt[i] += n
            if 0 in cnt:
                dead = [i for i in range(k) if cnt[i] == 0]
                masks, drawn, kids = self._materialize(levels)
                return self._resolve_friends(masks, drawn, kids, dead)
            if len(levels) >= depth_cap:
                return DEPTH_CAPPED
            if nodes > node_cap:
                return NODE_CAPPED
            if certifiable and all(cnt[i] >= cert[i] for i in range(k)):
                # every avoiding cluster is certified to survive to depth_cap
                return DEPTH_CAPPED
            level = []
            nxt: dict[int, int] = {}
            for m, n in counts.items():
                for c, cm, lam_c, draw in growth[m]:
                    t = draw() if n == 1 else poisson(lam_c * n)
                    if t:
                        level.append((m, c, cm, t))
                        nxt[cm] = nxt.get(cm, 0) + t
                        nodes += t
            levels.append(level)
            counts = nxt

    def _materialize(self, levels):
        """Per-node arena (masks, drawn, kids) of grown level totals.

        Each (m, c) total is split among that level's mask-m nodes by one
        uniform parent choice per child. Nodes of every grown level have all
        admissible colors drawn; the last level is the unrevealed frontier.
        """
        uniform = self._uniform.draw
        grown_drawn = self._grown_drawn
        full = self._full
        last = len(levels)
        masks = [full]
        drawn = [grown_drawn[full] if last else 0]
        kids: dict[tuple[int, int], range] = {}
        # node ids of the current level per avoid-mask
        parents = {full: [0]}
        for depth, level in enumerate(levels, 1):
            frontier = depth == last
            nxt: dict[int, list[int]] = {}
            for m, c, cm, t in level:
                ps = parents[m]
                p = len(ps)
                if p == 1:
                    split = ((ps[0], t),)
                else:
                    per = [0] * p
                    for _ in range(t):
                        per[int(uniform() * p)] += 1
                    split = zip(ps, per)
                dv = 0 if frontier else grown_drawn[cm]
                first = len(masks)
                for u, n in split:
                    if n:
                        base = len(masks)
                        masks.extend([cm] * n)
                        drawn.extend([dv] * n)
                        kids[(u, c)] = range(base, base + n)
                if not frontier:
                    nxt.setdefault(cm, []).extend(range(first, len(masks)))
            parents = nxt
        return masks, drawn, kids

    def _resolve_friends(self, masks, drawn, kids, dead) -> FriendCountOutcome:
        k = self.k
        streams = self._streams
        deadmask = 0
        for i in dead:
            deadmask |= 1 << i
        n0 = len(masks)
        type_memo: dict[int, int] = {}
        alive_memo: dict[tuple[int, int], bool] = {}
        tmasks, tcum = self._type_masks, self._type_cum

        def typed(u: int) -> int:
            gm = type_memo.get(u)
            if gm is None:
                gm = tmasks[bisect_left(tcum, self._uniform.draw())]
                type_memo[u] = gm
            return gm

        def alive(j: int, u: int) -> bool:
            key = (u, j)
            res = alive_memo.get(key)
            if res is not None:
                return res
            if drawn[u] == 0:
                res = bool((typed(u) >> j) & 1)
            else:
                # reveal any not-yet-drawn colors; their children are fully
                # unrevealed and will be typed on demand
                du = drawn[u]
                for c in range(k):
                    if not (du >> c) & 1:
                        nch = streams[c].draw()
                        du |= 1 << c
                        if nch:
                            base = len(masks)
                            cm = masks[u] & ~(1 << c)
                            masks.extend([cm] * nch)
                            drawn.extend([0] * nch)
                            kids[(u, c)] = list(range(base, base + nch))
                drawn[u] = du
                res = False
                for c in range(k):
                    if c == j:
                        continue
                    for w in kids.get((u, c), ()):
                        if alive(j, w):
                            res = True
                            break
                    if res:
                        break
            alive_memo[key] = res
            return res

        count = 0
        for v in range(n0):
            mv = masks[v]
            if mv & deadmask != deadmask:
                continue
            ok = True
            for j in range(k):
                if (mv >> j) & 1:
                    continue
                if not (alive(j, 0) and alive(j, v)):
                    ok = False
                    break
            if ok:
                count += 1
        return FriendCountOutcome.finite(count)


@dataclass(frozen=True)
class McHistogram:
    """Empirical friend-count frequencies; finite counts are kept sparsely so
    the finite frequencies and the censored mass sum to 1 exactly."""

    samples: int
    finite_counts: dict[int, int]
    censored_counts: dict[str, int] = field(default_factory=dict)

    @property
    def censored(self) -> int:
        return sum(self.censored_counts.values())

    def frequency(self, ell: int) -> float:
        return self.finite_counts.get(ell, 0) / self.samples

    @property
    def censored_mass(self) -> float:
        return self.censored / self.samples

    def stderr(self, ell: int) -> float:
        p = self.frequency(ell)
        return math.sqrt(p * (1.0 - p) / self.samples)

    def censored_stderr(self) -> float:
        p = self.censored_mass
        return math.sqrt(p * (1.0 - p) / self.samples)

    def dense(self, ell_max: int) -> list[float]:
        return [self.frequency(ell) for ell in range(1, ell_max + 1)]

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "histogram": {str(ell): c for ell, c in
                          sorted(self.finite_counts.items())},
            "censored": dict(self.censored_counts),
            "censored_mass": self.censored_mass,
        }


def mc_component_size_distribution(lam, samples: int, ell_max: int,
                                   rng: np.random.Generator,
                                   depth_cap: int = 40,
                                   node_cap: int = 10**6) -> McHistogram:
    """Empirical friend-count distribution over i.i.d. tree samples.

    Censored outcomes (every avoiding cluster still alive at the caps) are
    excluded from the finite numerators but kept in the denominator; the
    censored mass estimates the infinite-class density plus truncation bias.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    sampler = FriendCountSampler(lam, rng, depth_cap, node_cap)
    finite: dict[int, int] = {}
    censored: dict[str, int] = {}
    for _ in range(samples):
        out = sampler.sample()
        if out.kind == "finite":
            finite[out.ell] = finite.get(out.ell, 0) + 1
        else:
            censored[out.reason] = censored.get(out.reason, 0) + 1
    return McHistogram(samples, finite, censored)

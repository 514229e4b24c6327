"""Edge-colored Poisson branching-process estimators: counts-first core
growth, friend counting with exact frontier typing, and Monte Carlo
estimators of the friend-count distribution and of the infinite-class
density."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .analytic import (
    classify_lambda,
    extended_type_distribution,
    subset_sums,
    survival_theta,
)
from .params import LambdaVector, as_lambda

# per-sample probability that the certified-alive shortcut or a typing
# shortcut mislabels an outcome; far below MC noise at any feasible sample
# count
CERT_EPS = 1e-12


class CoreOverflow(Exception):
    """A core sample has more nodes than the node cap."""


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
# Counts-first growth by avoid-mask
# ---------------------------------------------------------------------------

def _growth_table(lam: LambdaVector, min_bits: int):
    """Growth entries (m, c, m & ~(1 << c)), one per color c of each
    avoid-mask m with >= min_bits bits whose children still avoid a color,
    with their masks, their intensities lambda_c, and the entry -> child
    mask 0/1 matrix that sums entry totals into counts per mask."""
    full = (1 << lam.k) - 1
    bits = subset_sums([1] * lam.k)
    entries = [(m, c, m & ~(1 << c)) for m in range(1, full + 1)
               if bits[m] >= min_bits
               for c in range(lam.k) if m & ~(1 << c)]
    entry_mask = np.array([m for m, _, _ in entries])
    entry_lam = np.array([lam[c] for _, c, _ in entries])
    scatter = np.zeros((len(entries), full + 1), dtype=np.int64)
    scatter[np.arange(len(entries)), [cm for *_, cm in entries]] = 1
    return entries, entry_mask, entry_lam, scatter


# samples core_counts grows together (fastest of 1024..65536, measured)
_CORE_BLOCK = 16384


def core_counts(lam, samples: int, rng: np.random.Generator,
                node_cap: int = 10**6) -> np.ndarray:
    """(samples, 2^k) node totals per avoid-mask on i.i.d. trees: the root
    in column full, the core (root paths with at most k-2 colors) in the
    columns with >= 2 bits, its (i,) chronology layer in full ^ (1 << i),
    and the boundary b_i in column 1 << i.

    Growth is counts-first, from the masks with the most avoided colors
    down: given the totals above, Poisson(sum of N_m' * lambda_c over
    entries m' -c-> m) nodes arrive in mask m, and each grows a subcritical
    Poisson(lambda of the colors m has used) subtree inside m. Boundary
    nodes (one avoided color) are counted, never grown. Raises CoreOverflow
    when a sample's core has more than node_cap nodes.
    """
    lam = as_lambda(lam)
    if not classify_lambda(lam).assumption_holds:
        raise ValueError(
            "core growth requires every color subset of size <= k-2 "
            "to have total intensity < 1")
    full = (1 << lam.k) - 1
    entries, entry_mask, entry_lam, scatter = _growth_table(lam, 2)
    child = np.array([cm for *_, cm in entries])
    bits = subset_sums([1] * lam.k)
    stay = child == entry_mask
    # mean children that stay in a mask: the colors it has used
    mu = np.bincount(entry_mask[stay], entry_lam[stay], minlength=full + 1)
    out = np.zeros((samples, full + 1), dtype=np.int64)
    out[:, full] = 1
    for lo in range(0, samples, _CORE_BLOCK):
        totals = out[lo:lo + _CORE_BLOCK]
        for p in range(lam.k - 1, 0, -1):
            into = ~stay & (bits[child] == p)
            cols = np.flatnonzero(bits == p)
            arrived = rng.poisson((totals[:, entry_mask[into]]
                                   * entry_lam[into])
                                  @ scatter[np.ix_(into, cols)])
            totals[:, cols] = (_progeny(arrived, mu[cols], rng) if p >= 2
                               else arrived)
        if (totals[:, bits >= 2].sum(axis=1) > node_cap).any():
            raise CoreOverflow(f"core node cap {node_cap} exceeded")
    return out


def _progeny(start: np.ndarray, mean: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Total progeny, start counted, of Poisson(mean[j]) Galton-Watson
    processes started from start[:, j] individuals, mean[j] < 1."""
    total = start.copy()
    flat = total.reshape(-1)
    idx = np.flatnonzero(flat)
    gen = flat[idx]
    mu = np.broadcast_to(mean, start.shape).reshape(-1)[idx]
    while idx.size:
        gen = rng.poisson(mu * gen)
        keep = gen > 0
        idx, gen, mu = idx[keep], gen[keep], mu[keep]
        flat[idx] += gen
    return total


def _per_core_sample(lam, samples: int, rng: np.random.Generator, cols,
                     value, node_cap: int = 10**6) -> np.ndarray:
    """value(core_counts(lam, samples, rng, node_cap)[:, cols]), drawn and
    evaluated one block at a time so that only the values are kept."""
    return np.concatenate([
        value(core_counts(lam, min(_CORE_BLOCK, samples - lo), rng,
                          node_cap)[:, cols])
        for lo in range(0, samples, _CORE_BLOCK)])


def mc_f_infinity(lam, samples: int, rng: np.random.Generator,
                  node_cap: int = 10**6) -> tuple[float, float]:
    """Monte Carlo estimate of the infinite-class density: the sample mean of
    prod_i (1 - (1 - theta_i)^{b_i}) over i.i.d. core samples.

    Returns exactly (0.0, 0.0) outside the fully supercritical regime.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lam = as_lambda(lam)
    if not classify_lambda(lam).fully_supercritical:
        return 0.0, 0.0
    miss = np.array([1.0 - survival_theta(lam.lambda_without(i))
                     for i in range(lam.k)])
    vals = _per_core_sample(lam, samples, rng, 1 << np.arange(lam.k),
                            lambda b: np.prod(1.0 - miss ** b, axis=1),
                            node_cap)
    return float(vals.mean()), float(vals.std() / math.sqrt(samples))


def mc_phi1_estimate(lam, z: dict[tuple[int, ...], float], samples: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """MC estimate of E[prod_i z_(i)^{|R_(i)(r)|}] with its standard error,
    from the (i,) chronology layers of core samples."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lam = as_lambda(lam)
    if lam.k < 3:
        raise ValueError("Phi_1 needs k >= 3")
    zvec = np.array([z[(i,)] for i in range(lam.k)])
    if np.any(zvec <= 0.0) or np.any(zvec > 1.0):
        raise ValueError("z values must lie in (0, 1]")
    full = (1 << lam.k) - 1
    vals = _per_core_sample(lam, samples, rng, full ^ (1 << np.arange(lam.k)),
                            lambda layers: np.exp(layers @ np.log(zvec)))
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


# a censored sample carries nothing but its reason, and a sample whose root
# is its only candidate friend nothing but its count, so every such sample
# shares one outcome object
DEPTH_CAPPED = FriendCountOutcome.censored("depth-cap")
NODE_CAPPED = FriendCountOutcome.censored("node-cap")
ROOT_ONLY = FriendCountOutcome.finite(1)

# samples FriendCountSampler grows together; divides experiments._CHUNK
_BATCH = 1024


class FriendCountSampler:
    """Samples the root's friend count on the branching-process tree.

    Growth is restricted to nodes whose root path avoids at least one color
    (k-bit avoid-mask per node); color i's avoiding cluster is declared dead
    at the first level with no mask-bit-i node. Every member of a dead
    cluster is materialized by then, so friends are counted over the arena:
    v is a friend iff for every color i either the root path avoids i or both
    endpoints are i-avoiding connected to infinity through descendants.

    Growth is counts-first and batched: _BATCH samples grow together, each
    level a (samples, 2^k) matrix of node counts per avoid-mask, and the
    children of all count_m nodes of mask m via color c number
    Poisson(lambda_c * count_m) by Poisson additivity. Censoring depends on
    these counts alone. So does a finite sample whose root is the only node
    in every dead cluster: its friend count is 1. For any other finite
    sample the per-node arena is built from its level totals, by splitting
    each total among its parents with uniform parent choices (Poisson
    splitting: the same law as per-node draws).

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
        self.k = k = self.lam.k
        self.depth_cap = depth_cap
        self.node_cap = node_cap
        self.theta = [survival_theta(self.lam.lambda_without(i))
                      for i in range(k)]
        # None: this cluster dies almost surely
        self.cert = [max(1, math.ceil(math.log(CERT_EPS) / math.log1p(-t)))
                     if t > 0.0 else None for t in self.theta]
        phat = extended_type_distribution(self.lam)
        self._type_masks = sorted(phat)
        self._type_cum = list(accumulate(phat[g] for g in self._type_masks))
        self._streams = [_Stream(partial(rng.poisson, self.lam[c]))
                         for c in range(k)]
        self._uniform = _Stream(rng.random)
        self._poisson = rng.poisson
        self._full = full = (1 << k) - 1
        # every node that avoids a color grows
        (self._entries, self._entry_mask, self._entry_lam,
         self._scatter) = _growth_table(self.lam, 1)
        masks = np.arange(full + 1)
        # member[m, i]: mask-m nodes lie in color i's avoiding cluster
        self._member = (masks[:, None] >> np.arange(k)) & 1
        # superset[m, d]: mask-m nodes lie in every cluster that mask d names
        self._superset = (masks[:, None] & masks) == masks
        self._cert = None if None in self.cert else np.array(self.cert)
        # reveal state of a grown node: every admissible color drawn
        self._grown_drawn = [0] * (full + 1)
        for m, c, _ in self._entries:
            self._grown_drawn[m] |= 1 << c
        # outcomes of the current block, or (levels, dead) for a sample
        # whose friends are still to be resolved
        self._block: list = []
        self._next = 0

    def sample(self) -> FriendCountOutcome:
        if self._next == len(self._block):
            self._block = self._grow_block()
            self._next = 0
        out = self._block[self._next]
        self._next += 1
        if isinstance(out, FriendCountOutcome):
            return out
        levels, dead = out
        return self._resolve_friends(*self._materialize(levels), dead)

    def _grow_block(self) -> list:
        """Grows _BATCH samples from their roots. Each level settles, in
        order: samples with a dead cluster, then every sample at depth_cap,
        then samples over node_cap, then certified survivors; the rest grow
        one level by a single Poisson draw over all (sample, entry) pairs."""
        out = np.empty(_BATCH, dtype=object)
        ids = np.arange(_BATCH)
        counts = np.zeros((_BATCH, self._full + 1), dtype=np.int64)
        counts[:, self._full] = 1
        # nodes per avoid-mask grown so far, the root left out
        grown = np.zeros_like(counts)
        # per grown level: the ids of the samples grown and their totals of
        # children per entry
        history = []
        while True:
            cnt = counts @ self._member
            live = (cnt > 0).all(axis=1)
            if not live.all():
                self._settle_dead(out, ids[~live], cnt[~live], grown[~live],
                                  history)
            if len(history) >= self.depth_cap:
                out[ids[live]] = DEPTH_CAPPED
                break
            # the root and the grown nodes number more than node_cap
            over = live & (grown.sum(axis=1) >= self.node_cap)
            out[ids[over]] = NODE_CAPPED
            live &= ~over
            if self._cert is not None:
                # every avoiding cluster is certified to survive to depth_cap
                sure = live & (cnt >= self._cert).all(axis=1)
                out[ids[sure]] = DEPTH_CAPPED
                live &= ~sure
            ids, counts, grown = ids[live], counts[live], grown[live]
            if not ids.size:
                break
            draws = self._poisson(self._entry_lam
                                  * counts[:, self._entry_mask])
            counts = draws @ self._scatter
            grown += counts
            history.append((ids, draws))
        return out.tolist()

    def _settle_dead(self, out, ids, cnt, grown, history):
        """Outcomes of samples with a dead cluster: finite(1) when no node
        but the root lies in every dead cluster, else the sample's level
        totals as (mask, color, child mask, total) entries for
        _materialize, with its dead colors."""
        deadmasks = (cnt == 0) @ (1 << np.arange(self.k))
        # nodes other than the root in every dead cluster; frontier nodes
        # are counted too, but none of them lies in a dead cluster
        candidates = (grown * self._superset[:, deadmasks].T).sum(axis=1)
        alone = candidates == 0
        out[ids[alone]] = ROOT_ONLY
        ids, deadmasks = ids[~alone], deadmasks[~alone]
        entries = self._entries
        per_sample = [[] for _ in range(ids.size)]
        for grown_ids, draws in history:
            rows = draws[np.searchsorted(grown_ids, ids)].tolist()
            for levels, row in zip(per_sample, rows):
                levels.append([(m, c, cm, t)
                               for (m, c, cm), t in zip(entries, row) if t])
        for i, levels, d in zip(ids.tolist(), per_sample, deadmasks.tolist()):
            out[i] = (levels, [j for j in range(self.k) if (d >> j) & 1])

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
        # alive refers to itself through its closure cell; clearing the cell
        # frees the arena without waiting for the cyclic collector
        del alive
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
    if samples < 1:
        raise ValueError("samples must be >= 1")
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

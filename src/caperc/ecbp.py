"""Edge-colored Poisson branching-process estimators: batched friend
counting (at k = 2 grown as two single-color Galton-Watson clusters and
drawn from their counts, at k >= 3 resolved in numpy with exact typing of
the unrevealed subtrees) and the Monte Carlo estimator of the friend-count
distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .analytic import (
    check_small_subsets,
    extended_type_distribution,
    theta_avoid,
)
from .params import LambdaVector, as_lambda

# probability that a certified avoiding cluster still dies, so that the
# certified-alive shortcut mislabels an outcome; far below MC noise at any
# feasible sample count
CERT_EPS = 1e-12

# the largest mean numpy's Poisson draw accepts, about 9.2e18
POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# the samplers' default caps: levels grown, and nodes held, per sample
DEPTH_CAP = 40
NODE_CAP = 10**6


# ---------------------------------------------------------------------------
# Counts-first growth by avoid-mask
# ---------------------------------------------------------------------------

def _growth_table(k: int):
    """Growth entries, one per color c of each avoid-mask m whose children
    m & ~(1 << c) still avoid a color, mask-major and color-minor: their
    masks, colors and child masks."""
    masks = np.repeat(np.arange(1, 1 << k), k)
    colors = np.tile(np.arange(k), (1 << k) - 1)
    child = masks & ~(1 << colors)
    return masks[child > 0], colors[child > 0], child[child > 0]


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


# a censored sample carries nothing but its reason, and a finite one nothing
# but its count, so samples share their outcome objects
DEPTH_CAPPED = FriendCountOutcome.censored("depth-cap")
NODE_CAPPED = FriendCountOutcome.censored("node-cap")
_finite = cache(FriendCountOutcome.finite)
# codes of the censored outcomes among the friend counts of a block
_DEPTH, _NODE = 0, -1
_OUTCOMES = {_DEPTH: DEPTH_CAPPED, _NODE: NODE_CAPPED}


def _code_outcomes(codes: np.ndarray) -> list:
    """The shared outcome objects of int codes (ell, _DEPTH or _NODE),
    through one table indexed by code - _NODE that holds the codes found.
    The table stops at the block's size: a friend count past it, which can
    reach node_cap, takes its object from _finite's cache."""
    at = codes - _NODE
    big = at > at.size
    at[big] = 0
    counts = np.bincount(at)
    present = np.flatnonzero(counts)
    table = np.empty(counts.size, dtype=object)
    table[present] = [_OUTCOMES.get(c) or _finite(c)
                      for c in (present + _NODE).tolist()]
    outs = table[at]
    outs[big] = [_finite(c) for c in codes[big].tolist()]
    return outs.tolist()


# samples per FriendCountSampler block, unless the caller sizes the blocks
_BATCH = 1024
# (sample, entry) cells of a level's draws (512 KB) that callers size blocks to
_CELLS = 1 << 16
# grown nodes one friend-resolution pass holds at most, unless a single
# sample has more; bounds the memory of the per-node arrays
_PASS_NODES = 1 << 18


class FriendCountSampler:
    """Samples the root's friend count on the branching-process tree.

    Growth is restricted to nodes whose root path avoids at least one color
    (k-bit avoid-mask per node); color i's avoiding cluster is declared dead
    at the first level with no mask-bit-i node. Every member of a dead
    cluster is grown by then, so friends are counted over the grown tree:
    v is a friend iff for every color i either the root path avoids i or both
    endpoints are i-avoiding connected to infinity: the root through its
    descendants, v through those of the top of its i-avoiding path segment,
    the node below the lowest color-i edge of its root path.

    Growth is counts-first and batched: a block of samples grows together,
    each level a (samples, 2^k) matrix of node counts per avoid-mask, and the
    children of all count_m nodes of mask m via color c number
    Poisson(lambda_c * count_m) by Poisson additivity. Censoring depends on
    these counts alone. So does a finite sample whose root is the only node
    in every dead cluster: its friend count is 1. So, at k = 2, does every
    other sample with a dead cluster: the cluster holds single-color paths
    only, so its friends are independent given two counts, and two draws
    give their number (see _settle_clusters). A block holds _BATCH
    samples, unless its caller sizes the blocks (see _CELLS). Both growth
    loops give a block's int codes (ell, _DEPTH or _NODE) and settle its
    dead samples once, after its last level, in the order they died;
    _grow_block turns the codes into the shared outcome objects.

    At k = 2 every non-root node avoids exactly one color, so the two
    avoiding clusters grow independently, each through the one color it
    does not avoid: a block grows on four counts per sample and reads no
    k-generic table (see _grow_clusters). Its draws are those of the
    general loop, which settles the same samples in the same order, so the
    codes are too; that loop is its reference.

    At k >= 3 the other samples with a dead cluster are resolved in numpy.
    Their per-node trees are built level by level from the level totals,
    each child picking its parent uniformly among the previous level's nodes
    of its parent mask (Poisson splitting: the same law as per-node draws).
    Every unrevealed node gets an extended type, whose bit i says the node
    is i-avoiding connected to infinity: the frontier, and the color-i
    children of each grown node that avoids color i only, which growth never
    draws. Typing is exact, because a type depends on its own unrevealed
    subtree alone. The alive bits then propagate up one level at a time,
    and each segment top's bits down.

    When every cluster's frontier reaches a size whose total extinction
    probability is below CERT_EPS, the sample is censored immediately instead
    of growing to depth_cap; the mislabel probability is <= k * CERT_EPS.
    """

    def __init__(self, lam, rng: np.random.Generator,
                 depth_cap: int = DEPTH_CAP, node_cap: int = NODE_CAP):
        self.lam = as_lambda(lam)
        check_small_subsets(self.lam, "friend counting")
        self.k = k = self.lam.k
        self.depth_cap = depth_cap
        self.node_cap = node_cap
        self.theta = theta_avoid(self.lam)
        # frontier size certifying each cluster; None if one dies almost surely
        self.cert = None if (self.theta == 0.0).any() else np.array([
            max(1, math.ceil(math.log(CERT_EPS) / math.log1p(-t)))
            if t < 1.0 else 1 for t in self.theta])
        self._rng = rng
        self._poisson = rng.poisson
        self._full = (1 << k) - 1
        self._outs = iter(())  # the current block's outcomes not yet taken
        self._sizes = iter(())  # block sizes a caller gave, then _BATCH

    def _build_tables(self) -> None:
        """The k-generic tables, built on first use by _grow_levels and
        _arena (_friend_counts and _types follow it); k = 2 reads none."""
        if hasattr(self, "_type_cdf"):
            return
        k, full = self.k, self._full
        self._type_cdf = np.cumsum(extended_type_distribution(self.lam))
        # every node that avoids a color grows
        self._entry_mask, colors, child = _growth_table(k)
        self._entry_lam = np.array(self.lam.lam)[colors]
        # member[m, i]: mask-m nodes lie in color i's avoiding cluster
        self._member = (np.arange(full + 1)[:, None] >> np.arange(k)) & 1
        # per entry: the child mask, and the bits of a child's type that it
        # passes up the edge of the entry's color
        dtype = np.min_scalar_type(full)
        self._entry_child = child.astype(dtype)
        self._entry_keep = (full & ~(1 << colors)).astype(dtype)
        # entries by child mask: a level's nodes then come grouped by
        # (sample, mask), and masks 1..full-1, the child of m | (1 << c) for
        # each color c they avoid, own one run each, from _runs on
        self._by_child = np.argsort(child, kind="stable")
        self._runs = np.searchsorted(child[self._by_child], np.arange(1, full))
        # lambda_i for the mask {i} (its nodes' undrawn color), else 0
        self._lone_lam = np.zeros(full + 1)
        self._lone_lam[1 << np.arange(k)] = self.lam.lam

    def sample(self) -> FriendCountOutcome:
        out = next(self._outs, None)
        if out is None:
            self._outs = iter(self._grow_block(next(self._sizes, _BATCH)))
            out = next(self._outs)
        return out

    def _grow_block(self, size: int) -> list:
        """Outcomes of `size` samples grown from their roots."""
        grow = self._grow_clusters if self.k == 2 else self._grow_levels
        return _code_outcomes(grow(size))

    def _grow_clusters(self, size: int) -> np.ndarray:
        """Int codes of `size` samples at k = 2, where every non-root node
        avoids exactly one color: cluster i, the root and the nodes avoiding
        color i, is a Poisson(lambda_{1-i}) Galton-Watson process grown
        through color 1 - i alone. A sample is its two level counts and two
        non-root totals, one array each, and a level one Poisson draw.

        The checks, their order and the draws are those of _grow_levels:
        its draws of mean 0, for the masks that hold no node, use no random
        numbers, and the others come per sample in the same order, from the
        root its color-0 children (cluster 1) first, below it cluster 0's
        children first."""
        codes = np.full(size, _DEPTH)  # at depth_cap, or certified
        ids = np.arange(size)
        c0 = c1 = np.ones(size, dtype=np.int64)  # the root, in both levels
        n0, n1 = np.zeros((2, size), dtype=np.int64)
        lam0, lam1 = self.lam.lam[::-1]  # cluster i grows via 1 - i
        flip = slice(None, None, -1)  # the root's children: cluster 1 first
        dead = []  # per level with dead samples: their ids and columns
        for depth in range(self.depth_cap + 1):
            live = np.minimum(c0, c1) > 0
            if not live.all():
                rows = np.flatnonzero(~live)
                dead.append([col[rows] for col in (ids, c0, c1, n0, n1)])
            if depth == self.depth_cap:
                break
            if (n0 + n1).max(initial=0) >= self.node_cap:
                # the root and the grown nodes number more than node_cap
                over = live & (n0 + n1 >= self.node_cap)
                codes[ids[over]] = _NODE
                live &= ~over
            if self.cert is not None:
                # both clusters are certified to survive to depth_cap
                live &= (c0 < self.cert[0]) | (c1 < self.cert[1])
            rows = np.flatnonzero(live)
            ids, c0, c1, n0, n1 = (col[rows] for col in (ids, c0, c1, n0, n1))
            if not ids.size:
                break
            means = np.stack((lam0 * c0, lam1 * c1)[flip], axis=1)
            c0, c1 = self._poisson(means)[:, flip].T
            n0, n1 = n0 + c0, n1 + c1
            flip = slice(None)
        if dead:
            ids, *cols = map(np.concatenate, zip(*dead))
            codes[ids] = self._settle_clusters(*cols)
        return codes

    def _settle_clusters(self, c0, c1, n0, n1) -> np.ndarray:
        """Friend counts at k = 2 of samples with a dead cluster, from their
        level counts and non-root totals at its death: when cluster j = 1 - i
        died with N non-root nodes and cluster i holds F frontier nodes (1
        if F or N is 0), 1 + B Binomial(N, theta_i), B ~ Bernoulli(1 - (1 -
        theta_i)^F).

        A non-root node of cluster j reaches the root by color-i edges, so it
        is a friend iff both it and the root are i-avoiding connected to
        infinity. The root is iff one of the frontier types has bit i. The
        node is iff one of its undrawn Poisson(lambda_j) color-j children
        is: probability 1 - exp(-lambda_j theta(lambda_j)) = theta_i, for
        each node independently of the others and of the root.
        """
        live = (c1 > 0).astype(np.intp)  # the live cluster, if any
        frontier = c0 + c1
        nodes = np.where(live, n0, n1)  # non-root nodes of the dead cluster
        rest = (frontier > 0) & (nodes > 0)
        theta = self.theta[live[rest]]
        miss = (1.0 - theta) ** frontier[rest]  # no frontier type has bit i
        rooted = self._rng.random(theta.size) >= miss
        friends = np.ones(live.size, dtype=np.int64)
        friends[rest] += rooted * self._rng.binomial(nodes[rest], theta)
        return friends

    def _grow_levels(self, size: int) -> np.ndarray:
        """Int codes of `size` samples grown from their roots. Each level
        checks, in order: samples with a dead cluster, then every sample at
        depth_cap, then samples over node_cap, then certified survivors; the
        rest grow one level by a single Poisson draw over all (sample, entry)
        pairs."""
        self._build_tables()
        codes = np.full(size, _DEPTH)  # at depth_cap, or certified
        ids = np.arange(size)
        counts = np.zeros((size, self._full + 1), dtype=np.int64)
        counts[:, self._full] = 1
        # nodes per avoid-mask grown so far, the root left out
        grown = np.zeros_like(counts)
        # per grown level: the ids of the samples grown and their totals of
        # children per entry
        history = []
        # per level with dead samples: ids, cluster counts, grown, depths
        dead = []
        while True:
            cnt = counts @ self._member
            live = (cnt > 0).all(axis=1)
            if not live.all():
                dead.append((ids[~live], cnt[~live], grown[~live],
                             np.full(np.sum(~live), len(history))))
            if len(history) >= self.depth_cap:
                break
            # the root and the grown nodes number more than node_cap
            over = live & (grown.sum(axis=1) >= self.node_cap)
            codes[ids[over]] = _NODE
            live &= ~over
            if self.cert is not None:
                # every avoiding cluster is certified to survive to depth_cap
                live &= ~(cnt >= self.cert).all(axis=1)
            ids, counts, grown = ids[live], counts[live], grown[live]
            if not ids.size:
                break
            draws = self._poisson(self._entry_lam
                                  * counts[:, self._entry_mask])
            counts = self._level_counts(draws[:, self._by_child])
            grown += counts
            history.append((ids, draws))
        if dead:
            self._settle_dead(codes, *map(np.concatenate, zip(*dead)),
                              history)
        return codes

    def _settle_dead(self, codes, ids, cnt, grown, depths, history) -> None:
        """Writes the friend counts of a block's samples with a dead cluster
        from their cluster counts, grown nodes and depths at death: at k = 2
        drawn from the counts, at k >= 3 1 when the root is alone in every
        dead cluster, else resolved on the level history."""
        if self.k == 2:
            # masks 0b01 and 0b10 hold the non-root nodes of clusters 0, 1
            codes[ids] = self._settle_clusters(cnt[:, 0], cnt[:, 1],
                                               grown[:, 1], grown[:, 2])
            return
        deadmasks = (cnt == 0) @ (1 << np.arange(self.k))
        # nodes other than the root in every dead cluster (of masks that
        # hold the deadmask); frontier nodes are counted too, but none of
        # them lies in a dead cluster
        d = deadmasks[:, None]
        rest = ((grown > 0) & ((np.arange(self._full + 1) & d) == d)).any(1)
        codes[ids[~rest]] = 1
        self._resolve(codes, ids[rest], deadmasks[rest], depths[rest],
                      grown[rest].sum(axis=1), history)

    def _resolve(self, codes, ids, deadmasks, depths, sizes, history):
        """Writes the friend counts of the dead samples `ids`, in block order
        and in passes of at most _PASS_NODES grown nodes (or one sample)."""
        order = np.argsort(ids)
        ids, deadmasks, depths = ids[order], deadmasks[order], depths[order]
        ends = np.cumsum(sizes[order])
        lo = 0
        while lo < ids.size:
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + _PASS_NODES,
                                                 side="right")))
            codes[ids[lo:hi]] = self._friend_counts(
                self._arena(ids[lo:hi], depths[lo:hi], history),
                deadmasks[lo:hi])
            lo = hi

    def _arena(self, ids, depths, history):
        """Per-node arrays (sample, mask, keep, parent, frontier) of the
        samples `ids`, each grown depths[s] levels, and each level's first
        node.

        Level 0 holds the roots, so the root of sample s is node s. A level's
        nodes come grouped by (sample, mask), and each entry total of a
        sample is split among its nodes of the entry's mask on the level
        above by one uniform parent choice per child. keep masks out the
        color of the edge from the parent; frontier marks the last level of
        each sample, whose nodes are unrevealed.
        """
        self._build_tables()
        n = ids.size
        full = self._full
        by_child = self._by_child
        counts = np.zeros((n, full + 1), dtype=np.int64)
        counts[:, full] = 1
        roots = np.full(n, full, self._entry_child.dtype)
        sample, mask, keep = [np.arange(n, dtype=np.int32)], [roots], [roots]
        parent, frontier = [np.full(n, -1)], [np.zeros(n, bool)]
        starts = [0, n]
        for d, (grown_ids, draws) in enumerate(history[:depths.max()], 1):
            rows = np.flatnonzero(depths >= d).astype(np.int32)
            # one cell per (sample, entry), the entries by child mask
            cells = draws[np.searchsorted(grown_ids, ids[rows])][:, by_child]
            nodes = cells.ravel()
            row = np.repeat(rows, by_child.size)
            entry = np.tile(by_child, rows.size)
            pm = self._entry_mask[entry]
            # the cell's parent group on the level above: first node, size
            first = (starts[-2] + np.cumsum(counts).reshape(counts.shape)
                     - counts)[row, pm]
            pick = self._rng.random(nodes.sum())
            pick *= np.repeat(counts[row, pm], nodes)
            parent.append(np.repeat(first, nodes) + pick.astype(np.int64))
            sample.append(np.repeat(row, nodes))
            mask.append(np.repeat(self._entry_child[entry], nodes))
            keep.append(np.repeat(self._entry_keep[entry], nodes))
            frontier.append(np.repeat(depths[row] == d, nodes))
            starts.append(starts[-1] + pick.size)
            counts = np.zeros_like(counts)
            counts[rows] = self._level_counts(cells)
        return (*map(np.concatenate, (sample, mask, keep, parent, frontier)),
                starts)

    def _level_counts(self, cells) -> np.ndarray:
        """A level's node counts per avoid-mask from its draws in _by_child
        order: each child mask's total is the sum of its run."""
        counts = np.zeros((len(cells), self._full + 1), dtype=np.int64)
        counts[:, 1:-1] = np.add.reduceat(cells, self._runs, axis=1)
        return counts

    def _types(self, size: int) -> np.ndarray:
        """`size` draws from the extended-type law, as type masks."""
        return np.minimum(np.searchsorted(self._type_cdf,
                                          self._rng.random(size)),
                          self._full).astype(self._entry_child.dtype)

    def _friend_counts(self, arena, deadmasks) -> np.ndarray:
        """Friend counts of the samples of an arena (see _arena) whose dead
        clusters are named by deadmasks."""
        sample, mask, keep, parent, frontier, starts = arena
        full = self._full
        lone = np.flatnonzero(~frontier & (self._lone_lam[mask] > 0.0))
        kids = self._rng.poisson(self._lone_lam[mask[lone]])
        # one type per unrevealed node: the frontier, then the lone nodes'
        # children; alive bit i: i-avoiding connected to infinity through
        # descendants
        unrevealed = np.count_nonzero(frontier)
        types = self._types(unrevealed + kids.sum())
        alive = np.zeros_like(mask)
        alive[frontier] = types[:unrevealed]
        np.bitwise_or.at(alive, np.repeat(lone, kids), types[unrevealed:]
                         & np.repeat(full & ~mask[lone], kids))
        for d in range(len(starts) - 2, 0, -1):
            lo, hi = starts[d], starts[d + 1]
            np.bitwise_or.at(alive, parent[lo:hi], alive[lo:hi] & keep[lo:hi])
        # top bit i: alive bit i of the top of the node's i-avoiding path
        # segment, the node below the lowest color-i edge of its root path
        top = alive.copy()
        for d in range(1, len(starts) - 1):
            lo, hi = starts[d], starts[d + 1]
            top[lo:hi] = (top[parent[lo:hi]] & keep[lo:hi]) | (
                alive[lo:hi] & ~keep[lo:hi])
        dead = deadmasks.astype(mask.dtype)[sample]
        friend = ((mask & dead) == dead) & (
            (full & ~mask & ~(top & alive[sample])) == 0)
        return np.bincount(sample[friend], minlength=deadmasks.size)


@dataclass(frozen=True)
class McHistogram:
    """Empirical friend-count frequencies; finite counts are kept sparsely so
    the finite frequencies and the censored mass sum to 1 exactly."""

    samples: int
    finite_counts: dict[int, int]
    censored_counts: dict[str, int]

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


def mc_component_size_distribution(lam, samples: int,
                                   rng: np.random.Generator,
                                   depth_cap: int = DEPTH_CAP,
                                   node_cap: int = NODE_CAP) -> McHistogram:
    """Empirical friend-count distribution over i.i.d. tree samples.

    Censored outcomes (every avoiding cluster still alive at the caps) are
    excluded from the finite numerators but kept in the denominator; the
    censored mass estimates the infinite-class density plus truncation bias.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sampler = FriendCountSampler(lam, rng, depth_cap, node_cap)
    # the fewest blocks _CELLS allows (16384 samples each at k=2), none unused
    size = max(_BATCH, _CELLS // (sampler.k * (sampler._full - 1)))
    sampler._sizes = (min(size, samples - lo) for lo in range(0, samples, size))
    finite: dict[int, int] = {}
    censored: dict[str, int] = {}
    for _ in range(samples):
        out = sampler.sample()
        if out.kind == "finite":
            finite[out.ell] = finite.get(out.ell, 0) + 1
        else:
            censored[out.reason] = censored.get(out.reason, 0) + 1
    return McHistogram(samples, finite, censored)

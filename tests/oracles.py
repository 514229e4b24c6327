"""Independent oracles the tests check the package against, kept out of the
package because no command runs them: the layer-root Newton on an index list
of the entries still moving, the p_I solve on full-table sums, the Borel
pmf and total-progeny generating function, the counts-first core sampler
and its Monte Carlo infinite-class density, the string-indexed Phi
recursion, the Phi route on one array per level, the per-node
branching-process tree arena, the chronology-of-colors atlas, the tree-ball
keys read off that arena, the brute-force color-avoiding partition, and the
meet that sorts every vertex."""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import groupby, permutations
from typing import Union

import numpy as np

from caperc.analytic import (
    PSystemError,
    PTable,
    _incoming,
    _largest_roots,
    _layer_incoming,
    _layers,
    _residuals,
    borel_log_pmf,
    check_small_subsets,
    classify_lambda,
    solve_p_system,
    subset_sums,
    theta_avoid,
)
from caperc.ecbp import NODE_CAP, _growth_table
from caperc.graph import EdgeColoredGraph, connected_components
from caperc.localweak import SIZE_CAP, BallKey
from caperc.params import LambdaVector, as_lambda


# ---------------------------------------------------------------------------
# The layer root by Newton on the entries still moving
# ---------------------------------------------------------------------------

def largest_roots_by_index(c, mu) -> np.ndarray:
    """Largest root in [0, 1] of p = -expm1(-c - mu p), elementwise over the
    broadcast of c >= 0 and mu > 0: exactly 0 when c = 0 and mu <= 1, and
    exactly 1 when c = +inf. The right-hand side is concave, so Newton from
    p = 1 decreases monotonically to the root; an entry stops at its first
    step that does not decrease it, which cannot cycle at the ulp level. The
    expm1 form is conditioned at machine precision, also near criticality.
    Each step gathers the entries still moving by index and scatters their
    new values back; _largest_roots, which steps the whole array in place,
    must give its roots to the bit."""
    c, mu = np.broadcast_arrays(np.asarray(c, dtype=float), mu)
    p = np.where((c == 0.0) & (mu <= 1.0), 0.0, 1.0)
    c, mu, flat = c.ravel(), mu.ravel(), p.reshape(-1)
    idx = np.flatnonzero(flat)
    while idx.size:
        p_i, mu_i = flat[idx], mu[idx]
        x = -c[idx] - mu_i * p_i
        new = p_i - (-np.expm1(x) - p_i) / (mu_i * np.exp(x) - 1.0)
        down = new < p_i
        idx = idx[down]
        flat[idx] = new[down]
    return p


# ---------------------------------------------------------------------------
# The p_I system on full-table sums
# ---------------------------------------------------------------------------

def solve_p_system_by_full_tables(lam) -> PTable:
    """The p_I solve with every layer's c taken from _incoming over the
    whole 2^k table (k reshape-adds a layer); solve_p_system, which sums
    each layer on its own masks, must give its table to the bit.

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
    full = (1 << lam.k) - 1
    bits = subset_sums([1] * lam.k)
    mu = subset_sums(lam.lam)[::-1]
    p = np.zeros(full + 1)
    for layer in range(1, lam.k):
        masks = np.flatnonzero(bits == layer)
        p[masks] = largest_roots_by_index(_incoming(lam, p)[masks],
                                         mu[masks])
    p[full] = -math.expm1(-_incoming(lam, p)[full])
    max_res = float(_residuals(lam, p).max())
    if max_res > 1e-8:
        raise PSystemError(f"p_I residual {max_res:.3e} exceeds 1.0e-08")
    relevant = bool(np.all(p[1:] > 0.0))
    return PTable(lam, p, relevant=relevant, max_residual=max_res)


# ---------------------------------------------------------------------------
# Borel law and total-progeny generating function
# ---------------------------------------------------------------------------

def borel_pmf(mu: float, m: int) -> float:
    """Borel(mu) pmf: total-progeny law of a Poisson(mu) branching process."""
    return math.exp(borel_log_pmf(mu, m))


def total_progeny_gf(mu, z) -> float | np.ndarray:
    """Generating function G(z) = E[z^M] of the Borel(mu) total-progeny law,
    elementwise: floats give a float, arrays (which broadcast) an array.

    G solves G = z exp(mu (G - 1)), so p = 1 - G is the p_I layer root at
    c = -log z, unique in [0, 1] for z < 1. At z = 1.0 the largest root
    gives the one-sided limit at 1: exactly 1 for mu <= 1 and the extinction
    probability 1 - theta(mu) otherwise.
    """
    mu, z = np.asarray(mu, dtype=float), np.asarray(z, dtype=float)
    if not np.all(mu > 0.0):
        raise ValueError("total_progeny_gf: mu must be positive")
    if not np.all((z >= 0.0) & (z <= 1.0)):
        raise ValueError("total_progeny_gf: z must lie in [0, 1]")
    with np.errstate(divide="ignore"):  # z = 0 gives c = +inf, so G = 0
        g = 1.0 - largest_roots_by_index(-np.log(z), mu)
    return float(g) if g.ndim == 0 else g


# ---------------------------------------------------------------------------
# Chronology-string generating functions Phi_h
# ---------------------------------------------------------------------------

def color_strings(k: int, h: int) -> list[tuple[int, ...]]:
    """All length-h color strings without repetition, lexicographic order;
    the count is the falling factorial k (k-1) ... (k-h+1)."""
    if h < 0 or h > k:
        raise ValueError("color_strings: need 0 <= h <= k")
    return sorted(permutations(range(k), h))


def phi_eval(lam, h: int, z: dict[tuple[int, ...], float]) -> float:
    """Evaluate Phi_h at the point z (indexed by exactly the length-h strings).

    Phi_0(z) = z; each level substitutes
    z_s <- prod_{i not in set(s)} exp(lambda_i (F_{s i}(z_{s i}) - 1))
    where F uses the total intensity of set(s i).  Arguments exactly equal to
    1.0 are one-sided limits handled analytically by total_progeny_gf.
    """
    lam = as_lambda(lam)
    k = lam.k
    if not 0 <= h <= max(k - 2, 0):
        raise ValueError("phi_eval: need 0 <= h <= k-2")
    expected = set(color_strings(k, h))
    if set(z.keys()) != expected:
        raise ValueError("phi_eval: z must be indexed by exactly S_h")
    for v in z.values():
        if not 0.0 <= v <= 1.0:
            raise ValueError("phi_eval: z values must lie in [0, 1]")
    mu = subset_sums(lam.lam)
    cur = dict(z)
    for level in range(h, 0, -1):
        # F_{s i}(z_{s i}), one entry per string s i of this level
        f = total_progeny_gf([mu[sum(1 << c for c in si)] for si in cur],
                             list(cur.values()))
        f = dict(zip(cur, f.tolist()))
        cur = {s: math.prod(math.exp(lam[i] * (f[s + (i,)] - 1.0))
                            for i in range(k) if i not in s)
               for s in color_strings(k, level - 1)}
    return cur[()]


def gf_route_by_layer_arrays(lam, table: PTable | None = None) -> float:
    """Density of the infinite friend class via the Phi_{k-2} route, with
    each level of the set recursion in its own (C(k, h), J) array, its rows
    placed by a map from mask to position in the layer, and the sign sets J
    in column blocks of 2^18 / C(k, k/2), each summed apart.
    f_infinity_generating_function, which runs the levels on
    solve_p_system's loop over one (2^k, J) table, must give its value to
    the bit at k <= 10, where this takes one column block.

    Alternating sum over color subsets J of Phi_{k-2} evaluated at arguments
    z_s = prod_{i not in set(s)} q_{J, s i}, where q_{J, s i} is
    exp(lambda_i (F_{s i}(1-) - 1)) = exp(-lambda_i theta(lambda^{\\m})) when
    the one color m missing from set(s i) belongs to J, and 1 otherwise.
    theta is read from `table`, which is solved here when none is given.
    """
    lam = as_lambda(lam)
    k = lam.k
    if not classify_lambda(lam).fully_supercritical:
        raise ValueError("generating-function route requires fully supercritical lambda")
    check_small_subsets(lam, "the generating-function route")
    theta = (table or solve_p_system(lam)).theta
    x, mu = np.array(lam.lam), subset_sums(lam.lam)[::-1]
    bits, colors = subset_sums([1] * k), np.arange(k)
    row = np.empty(1 << k, dtype=np.intp)  # position of a set in its layer
    for h in range(k + 1):
        layer = np.flatnonzero(bits == h)
        row[layer] = np.arange(layer.size)
    total = 0.0
    width = max(1, (1 << 18) // math.comb(k, k // 2))
    for js in np.split(np.arange(1 << k), np.arange(width, 1 << k, width)):
        # the layer below, its rows in the order of its masks
        below = theta[:, None] * ((js >> colors[:, None]) & 1)
        for h, blocks in groupby(_layers(k), lambda block: len(block[1])):
            if h == 1:
                continue
            p = np.empty((math.comb(k, h), js.size))
            for masks, cols, subs in blocks:
                c = _layer_incoming(x, below, cols, row[subs])
                if h < k:
                    p[row[masks]] = _largest_roots(c, mu[masks][:, None])
            below = p
        total += float((1 - 2 * (bits[js] & 1)) @ np.exp(-c[0]))  # (-1)^|J|
    return max(0.0, total)


# ---------------------------------------------------------------------------
# Counts-first core growth and the Monte Carlo infinite-class density
# ---------------------------------------------------------------------------

class CoreOverflow(Exception):
    """A core sample has more nodes than the node cap."""


# samples core_counts grows together (fastest of 1024..65536, measured)
_CORE_BLOCK = 16384


def dense_scatter(child: np.ndarray, full: int) -> np.ndarray:
    """The entry -> child mask 0/1 matrix (entries x 2^k, int64) that sums
    entry totals into counts per mask by one matrix product."""
    scatter = np.zeros((child.size, full + 1), dtype=np.int64)
    scatter[np.arange(child.size), child] = 1
    return scatter


def core_growth_table(lam: LambdaVector):
    """The growth entries of core nodes, which keep two avoided colors (all
    their children avoid one): their masks, intensities lambda_c, child
    masks and dense scatter."""
    masks, colors, child = _growth_table(lam.k)
    core = subset_sums([1] * lam.k)[masks] >= 2
    return (masks[core], np.array(lam.lam)[colors[core]], child[core],
            dense_scatter(child[core], (1 << lam.k) - 1))


def scatter_level_counts(sampler):
    """A stand-in for sampler._level_counts that sums a level's draws, given
    in _by_child order, by the dense scatter of the sampler's entries."""
    sampler._build_tables()
    scatter = dense_scatter(sampler._entry_child, sampler._full)
    by_child = scatter[sampler._by_child]
    return lambda cells: cells @ by_child


def core_counts(lam, samples: int, rng: np.random.Generator,
                node_cap: int = NODE_CAP) -> np.ndarray:
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
    check_small_subsets(lam, "core growth")
    full = (1 << lam.k) - 1
    entry_mask, entry_lam, child, scatter = core_growth_table(lam)
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


def mc_f_infinity(lam, samples: int,
                  rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the infinite-class density: the sample mean of
    prod_i (1 - (1 - theta_i)^{b_i}) over i.i.d. core samples.

    Returns exactly (0.0, 0.0) outside the fully supercritical regime.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lam = as_lambda(lam)
    if not classify_lambda(lam).fully_supercritical:
        return 0.0, 0.0
    miss = 1.0 - theta_avoid(lam)
    boundary = 1 << np.arange(lam.k)
    # drawn and evaluated one block at a time, so only the values are kept
    vals = np.concatenate([
        np.prod(1.0 - miss ** core_counts(
            lam, min(_CORE_BLOCK, samples - lo), rng)[:, boundary], axis=1)
        for lo in range(0, samples, _CORE_BLOCK)])
    return float(vals.mean()), float(vals.std() / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Branching-process tree arena and full-tree sampling
# ---------------------------------------------------------------------------

class NodeCapExceeded(Exception):
    """Tree growth hit the node cap; the sample is censored."""


@dataclass
class ColoredTree:
    """Arena of branching-process nodes. Root is node 0 at depth 0."""

    parent: list[int] = field(default_factory=lambda: [-1])
    edge_color: list[int] = field(default_factory=lambda: [-1])
    depth: list[int] = field(default_factory=lambda: [0])
    children: list[list[int]] = field(default_factory=lambda: [[]])

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def add_child(self, parent: int, color: int) -> int:
        node = len(self.parent)
        self.parent.append(parent)
        self.edge_color.append(color)
        self.depth.append(self.depth[parent] + 1)
        self.children.append([])
        self.children[parent].append(node)
        return node

    def to_graph(self, k: int) -> EdgeColoredGraph:
        """View the arena as an edge-colored graph on its node indices."""
        edge_lists: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for v in range(1, self.n_nodes):
            edge_lists[self.edge_color[v]].append((self.parent[v], v))
        return EdgeColoredGraph(self.n_nodes, edge_lists)


def sample_ecbp(lam, depth: int, rng: np.random.Generator,
                node_cap: int = NODE_CAP) -> ColoredTree:
    """Sample a full edge-colored Poisson branching-process tree to the given
    depth: each node spawns Poisson(lambda_i) children per color i."""
    lam = as_lambda(lam)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tree = ColoredTree()
    level = [0]
    for _ in range(depth):
        nxt = []
        for u in level:
            for c in range(lam.k):
                for _ in range(int(rng.poisson(lam[c]))):
                    nxt.append(tree.add_child(u, c))
                    if tree.n_nodes > node_cap:
                        raise NodeCapExceeded(f"node cap {node_cap} exceeded")
        level = nxt
    return tree


def tree_ball_counts(lam, d: int, samples: int,
                     rng: np.random.Generator) -> tuple[Counter, int]:
    """Counts of canonical depth-d ball keys over i.i.d. arena trees, each
    grown in full up to 10 SIZE_CAP + 100 nodes and out of catalog above
    SIZE_CAP."""
    lam = as_lambda(lam)
    counts: Counter = Counter()
    out = 0
    for _ in range(samples):
        try:
            tree = sample_ecbp(lam, d, rng, node_cap=10 * SIZE_CAP + 100)
        except NodeCapExceeded:
            out += 1
            continue
        if tree.n_nodes > SIZE_CAP:
            out += 1
            continue

        # the tree stops at depth d, so the ball is the whole tree
        def rec(v: int) -> BallKey:
            return tuple(sorted((1 << tree.edge_color[w], rec(w))
                                for w in tree.children[v]))

        counts[rec(0)] += 1
    return counts, out


# ---------------------------------------------------------------------------
# Chronology-of-colors atlas: the reachable sets per color string, the core
# size rho, and the boundary vector b, on finite graphs and trees
# ---------------------------------------------------------------------------

ColorString = tuple[int, ...]


@dataclass(frozen=True)
class ChronologyAtlas:
    """Reachable sets R_s and fresh-color boundaries N_s per color string."""

    k: int
    root: int
    h_max: int
    r_sets: dict[ColorString, frozenset[int]]
    n_sets: dict[ColorString, frozenset[int]]

    def r_le(self, h: int) -> frozenset[int]:
        """Union of R_s over all strings of length at most h."""
        if h < 0 or h > self.h_max:
            raise ValueError("h out of range")
        out: set[int] = set()
        for s, vs in self.r_sets.items():
            if len(s) <= h:
                out |= vs
        return frozenset(out)

    @property
    def rho(self) -> int:
        """Size of the core reachable with at most k-2 colors."""
        return len(self.r_le(min(self.k - 2, self.h_max)))

    def boundary_vector(self) -> tuple[int, ...]:
        """b_i = size of the union of N_s over strings using exactly the
        colors other than i (length k-1)."""
        if self.h_max < self.k - 1:
            raise ValueError("boundary needs h_max = k-1")
        b = []
        for i in range(self.k):
            want = frozenset(range(self.k)) - {i}
            union: set[int] = set()
            for s, vs in self.n_sets.items():
                if len(s) == self.k - 1 and frozenset(s) == want:
                    union |= vs
            b.append(len(union))
        return tuple(b)


def _adjacency(g: EdgeColoredGraph) -> list[dict[int, list[int]]]:
    adj: list[dict[int, list[int]]] = [dict() for _ in range(g.k)]
    for c in range(g.k):
        for u, v in g.color_edges(c):
            adj[c].setdefault(int(u), []).append(int(v))
            adj[c].setdefault(int(v), []).append(int(u))
    return adj


def build_atlas(g: Union[EdgeColoredGraph, ColoredTree], v: int,
                h_max: int, k: int | None = None) -> ChronologyAtlas:
    """Build the chronology atlas of vertex v following the recursive
    definition: N_{s i} collects fresh color-i neighbors of R_s outside
    everything reached with at most |s| colors, and R_{s i} is what N_{s i}
    reaches inside the projection onto set(s i) with R_s deleted."""
    if isinstance(g, ColoredTree):
        if k is None:
            raise ValueError("k required when building from a ColoredTree")
        g = g.to_graph(k)
    k = g.k
    if h_max > k - 1:
        raise ValueError("h_max must be <= k-1")
    if not 0 <= v < g.n:
        raise ValueError("root out of range")
    adj = _adjacency(g)

    r_sets: dict[ColorString, frozenset[int]] = {(): frozenset({v})}
    n_sets: dict[ColorString, frozenset[int]] = {(): frozenset({v})}
    reached_le: set[int] = {v}
    for h in range(1, h_max + 1):
        new_reached: set[int] = set()
        for s in color_strings(k, h):
            sm, i = s[:-1], s[-1]
            prev = r_sets[sm]
            fresh = {
                w
                for u in prev
                for w in adj[i].get(u, ())
                if w not in reached_le
            }
            n_sets[s] = frozenset(fresh)
            # BFS from the fresh boundary inside the set(s)-projection with
            # the parent layer deleted
            colors = set(s)
            seen = set(fresh)
            queue = deque(fresh)
            while queue:
                u = queue.popleft()
                for c in colors:
                    for w in adj[c].get(u, ()):
                        if w not in seen and w not in prev:
                            seen.add(w)
                            queue.append(w)
            r_sets[s] = frozenset(seen)
            new_reached |= seen
        reached_le |= new_reached
    return ChronologyAtlas(k, v, h_max, r_sets, n_sets)


def core_and_boundary(g: Union[EdgeColoredGraph, ColoredTree], v: int,
                      k: int | None = None) -> tuple[int, tuple[int, ...]]:
    """(rho, b) of vertex v: core size with at most k-2 colors and the vector
    of fresh full-palette-minus-one boundary sizes."""
    atlas = build_atlas(g, v, h_max=(k or getattr(g, "k", 0)) - 1, k=k)
    if atlas.k < 2:
        raise ValueError("core/boundary needs k >= 2")
    return atlas.rho, atlas.boundary_vector()


# ---------------------------------------------------------------------------
# Brute-force color-avoiding partition
# ---------------------------------------------------------------------------

def brute_force_cap_partition(g: EdgeColoredGraph) -> np.ndarray:
    """Same contract as color_avoiding_partition, but via independent
    BFS connectivity checks per pair and per color."""
    if g.n > 12:
        raise ValueError("brute force limited to n <= 12")
    n, k = g.n, g.k
    # adj[i][u]: u's neighbours via every color but i (a pair shared by
    # two colors is listed twice, which the search does not mind)
    adj: list[list[list[int]]] = []
    for i in range(k):
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for c in range(k):
            if c != i:
                for u, v in g.color_edges(c).tolist():
                    nbrs[u].append(v)
                    nbrs[v].append(u)
        adj.append(nbrs)

    def connected(a: int, b: int, i: int) -> bool:
        seen = {a}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            if u == b:
                return True
            for w in adj[i][u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return False

    # the relation is an equivalence, so the first a < b it links b to is
    # the smallest vertex of b's block
    labels = np.arange(n, dtype=np.int64)
    for b in range(n):
        for a in range(b):
            if all(connected(a, b, i) for i in range(k)):
                labels[b] = a
                break
    return labels


# ---------------------------------------------------------------------------
# The color-avoiding partition with a full sort per meet
# ---------------------------------------------------------------------------

def color_avoiding_partition_by_sort(g: EdgeColoredGraph) -> np.ndarray:
    """color_avoiding_partition as it was before each meet settled most
    vertices by their two roots: every meet stable-sorts all n keys
    (labels[v], col[v])."""
    n = g.n
    # the projection without an edgeless color is the whole graph, which
    # every other projection refines, so only the colors with edges enter
    # the meet; with none of them, each vertex is its own block
    edged = [c for c in range(g.k) if g.edge_count(c)]
    labels = None if edged else np.arange(n, dtype=np.int64)
    for i in edged:
        # the projection onto every color but i, as a list of its colors'
        # edge arrays
        col = connected_components(
            n, [g.color_edges(c) for c in edged if c != i])
        if labels is None:
            labels = col
            continue
        # the meet with this color: the blocks are the runs of equal keys
        # (labels[v], col[v]) in sorted order, and a stable sort lists each
        # run's vertices in increasing order, so its first is their label;
        # the keys pass 2^31 from about n = 2^16, so they are int64 whatever
        # the labels' dtype
        key = labels.astype(np.int64)
        key *= n
        key += col
        del labels, col
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.empty(n, dtype=bool)
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        np.cumsum(head, out=key)  # 1 + the run of each sorted vertex
        key -= 1
        first = order[head][key]
        del key
        labels = np.empty_like(first)
        labels[order] = first
        del order, head, first  # free before the next projection
    return labels

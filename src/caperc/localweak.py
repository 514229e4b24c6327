"""Colored local weak convergence check: empirical depth-d ball statistics of
ECER graphs versus branching-process trees, compared in restricted total
variation over a catalog of small rooted edge-colored trees."""

from __future__ import annotations

from collections import Counter

import numpy as np

from .graph import EdgeColoredGraph
from .params import as_lambda

# Canonical ball keys are nested tuples: a ball is a sorted tuple of
# (edge-color-mask, subtree-key) pairs. Non-tree balls and balls of more
# than SIZE_CAP vertices are out of catalog.

BallKey = tuple
SIZE_CAP = 30


class EmptyCatalogError(Exception):
    """No ball of either sample fell in the catalog: nothing to compare."""


def _ecer_adjacency(g: EdgeColoredGraph) -> list[dict[int, int]]:
    """Per-vertex map neighbor -> color mask (multi-color edges merged)."""
    adj: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for c in range(g.k):
        bit = 1 << c
        for u, v in g.edge_sets[c]:
            u, v = int(u), int(v)
            adj[u][v] = adj[u].get(v, 0) | bit
            adj[v][u] = adj[v].get(u, 0) | bit
    return adj


def _canon_ball(adj: list[dict[int, int]], root: int, d: int,
                size_cap: int) -> BallKey | None:
    """Canonical key of the depth-d ball around root, or None when the ball
    is not a tree (induced cycle) or exceeds the size cap."""
    dist = {root: 0}
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        if dist[v] == d:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                if len(order) > size_cap:
                    return None
    # the induced ball is a tree iff it has exactly |ball| - 1 vertex pairs
    # joined by edges (a multi-color pair counts once)
    pairs = sum(
        1 for v in order for w in adj[v] if w in dist and w > v
    )
    if pairs != len(order) - 1:
        return None
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in order:
        if v != root:
            parent = next(w for w in adj[v] if dist.get(w, -2) == dist[v] - 1)
            children[parent].append(v)

    def rec(v: int) -> BallKey:
        return tuple(sorted((adj[w][v], rec(w)) for w in children[v]))

    return rec(root)


def ecer_ball_counts(g: EdgeColoredGraph, d: int) -> tuple[Counter, int]:
    """Counts of canonical depth-d ball keys over ALL vertices as roots;
    second return value is the number of out-of-catalog roots."""
    if d < 0:
        raise ValueError("d must be >= 0")
    adj = _ecer_adjacency(g)
    counts = Counter(_canon_ball(adj, v, d, SIZE_CAP) for v in range(g.n))
    return counts, counts.pop(None, 0)


def _tree_ball(rates: tuple[float, ...], d: int,
               rng: np.random.Generator) -> BallKey | None:
    """Canonical key of a depth-d branching-process ball, or None once it
    passes SIZE_CAP vertices. The draws come level by level: for each node,
    for each color, one Poisson draw of its children of that color."""
    levels = []  # per level, per node: its children's color bits, in order
    width = size = 1
    for _ in range(d):
        level = []
        for _ in range(width):
            bits = []
            for c, x in enumerate(rates):
                bits += [1 << c] * int(rng.poisson(x))
                if size + len(bits) > SIZE_CAP:
                    return None
            size += len(bits)
            level.append(bits)
        levels.append(level)
        width = sum(map(len, level))
    # the ball stops at depth d, so its deepest nodes are leaves; each level
    # lists its nodes as the children of the level above, in order
    keys = [()] * width
    for level in reversed(levels):
        below = iter(keys)
        keys = [tuple(sorted((bit, next(below)) for bit in bits))
                for bits in level]
    return keys[0]


def ecbp_ball_counts(lam, d: int, samples: int,
                     rng: np.random.Generator) -> tuple[Counter, int]:
    """Counts of canonical depth-d ball keys over i.i.d. tree samples;
    second return value is the number of out-of-catalog samples."""
    if d < 0:
        raise ValueError("d must be >= 0")
    rates = as_lambda(lam).lam
    counts = Counter(_tree_ball(rates, d, rng) for _ in range(samples))
    return counts, counts.pop(None, 0)


def restricted_tv(p_counts: Counter, p_total: int,
                  q_counts: Counter, q_total: int) -> float:
    """Total-variation distance between the two empirical measures restricted
    to the union of observed catalog keys."""
    keys = set(p_counts) | set(q_counts)
    if p_total <= 0 or q_total <= 0 or not keys:
        raise ValueError("empty catalog")
    return 0.5 * sum(
        abs(p_counts.get(key, 0) / p_total - q_counts.get(key, 0) / q_total)
        for key in keys
    )


ISOLATED_ROOT_KEY: BallKey = ()

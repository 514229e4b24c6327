"""Colored local weak convergence check: empirical depth-d ball statistics of
ECER graphs versus the exact branching-process ball law, compared in
restricted total variation over a catalog of small rooted edge-colored
trees."""

from __future__ import annotations

import math
from collections import Counter
from functools import cache

from .graph import EdgeColoredGraph

# Canonical ball keys are nested tuples: a ball is a sorted tuple of
# (edge-color-mask, subtree-key) pairs. Non-tree balls and balls of more
# than SIZE_CAP vertices are out of catalog.

BallKey = tuple
SIZE_CAP = 30


class EmptyCatalogError(Exception):
    """No graph ball fell in the catalog: nothing to compare."""


def _ecer_adjacency(g: EdgeColoredGraph) -> list[dict[int, int]]:
    """Per-vertex map neighbor -> color mask (multi-color edges merged)."""
    adj: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for c, a, b in zip(g.colors, g.offsets, g.offsets[1:]):
        bit = 1 << c
        for u, v in g.edges[a:b].tolist():
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


@cache
def ball_probability(lam: tuple[float, ...], key: BallKey, d: int) -> float:
    """Probability that the depth-d ball of the branching process with
    intensities lam has canonical key `key`. By Poisson thinning, a node's
    children of color c whose depth-(d-1) ball has key s are Poisson(lam_c
    q_{d-1}(s)), independently over (c, s), so q_d(key) = exp(-sum lam)
    prod_{(c,s)} (lam_c q_{d-1}(s))^m / m!, with m the multiplicity of (c, s)
    in key and q_0(()) = 1. A tree edge has one color, so a key with a
    multi-color edge has probability 0."""
    if d == 0:
        return float(key == ())
    # summed in logs, so that no (lam_c q)^m overflows
    log_q = -sum(lam)
    for (mask, sub), m in Counter(key).items():
        if mask.bit_count() != 1:
            return 0.0
        rate = lam[mask.bit_length() - 1] * ball_probability(lam, sub, d - 1)
        if rate == 0.0:
            return 0.0
        log_q += m * math.log(rate) - math.lgamma(m + 1)
    return math.exp(log_q)


def restricted_tv(counts: Counter, total: int, lam: tuple[float, ...],
                  d: int) -> float:
    """Total-variation distance between the graph's empirical ball measure
    (counts over total roots) and the branching-process law of depth-d
    balls, the sum running over the keys the graph shows."""
    if total <= 0 or not counts:
        raise ValueError("empty catalog")
    return 0.5 * sum(abs(count / total - ball_probability(lam, key, d))
                     for key, count in counts.items())


ISOLATED_ROOT_KEY: BallKey = ()

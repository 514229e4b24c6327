"""Chronology-of-colors exploration on finite edge-colored graphs and trees:
the reachable sets per color string, the core size rho, and the boundary
vector b."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from .analytic import color_strings
from .graph import EdgeColoredGraph
from .trees import ColoredTree

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
        for u, v in g.edge_sets[c]:
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

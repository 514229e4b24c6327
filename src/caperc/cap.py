"""Color-avoiding component decomposition and empirical size densities."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .graph import EdgeColoredGraph, connected_components


def color_avoiding_partition(g: EdgeColoredGraph) -> np.ndarray:
    """Meet of the k per-color partitions: v, w share a block iff for every
    color i they are connected in the projection onto the other colors.

    Returns labels with labels[v] the smallest vertex in v's block.
    """
    n = g.n
    for i in range(g.k):
        # the projection onto every color but i, as a list of its colors
        col = connected_components(
            n, [e for c, e in enumerate(g.edge_sets) if c != i])
        if i == 0:
            labels = col
            continue
        # the meet with this color: the blocks are the runs of equal keys
        # (labels[v], col[v]) in sorted order, and a stable sort lists each
        # run's vertices in increasing order, so its first is their label
        key = labels
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


def brute_force_cap_partition(g: EdgeColoredGraph) -> np.ndarray:
    """Same contract as color_avoiding_partition, but via independent
    BFS connectivity checks per pair and per color. Test oracle only."""
    if g.n > 12:
        raise ValueError("brute force limited to n <= 12")
    n, k = g.n, g.k
    # adj[i][u]: u's neighbours via every color but i (a pair shared by
    # two colors is listed twice, which the search does not mind)
    adj: list[list[list[int]]] = []
    for i in range(k):
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for c, edges in enumerate(g.edge_sets):
            if c != i:
                for u, v in edges.tolist():
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


@dataclass(frozen=True)
class CapDecomposition:
    """Color-avoiding partition plus exact (rational) size bookkeeping."""

    labels: np.ndarray  # labels[v] = smallest vertex in v's block
    n: int
    size_histogram: dict[int, Fraction]  # size -> fraction of vertices
    size_counts: dict[int, int]          # size -> number of components
    max_fraction: Fraction

    @classmethod
    def from_graph(cls, g: EdgeColoredGraph) -> "CapDecomposition":
        labels = color_avoiding_partition(g)
        _, block_sizes = np.unique(labels, return_counts=True)
        sizes, counts = np.unique(block_sizes, return_counts=True)
        size_counts = dict(zip(sizes.tolist(), counts.tolist()))
        hist = {s: Fraction(s * c, g.n) for s, c in size_counts.items()}
        max_size = int(sizes[-1]) if sizes.size else 0
        return cls(labels, g.n, hist, size_counts,
                   Fraction(max_size, g.n if g.n else 1))

    def component_size_density(self, ell: int) -> Fraction:
        """Fraction of vertices lying in color-avoiding components of size ell
        (zero for ell > n: no component is larger than the graph)."""
        if ell < 1:
            raise ValueError("ell out of range")
        return self.size_histogram.get(ell, Fraction(0))

    def to_csv(self, fh: IO[str]) -> None:
        fh.write("# schema: cap-sizes-v1\n")
        fh.write("size,fraction,count\n")
        for size in sorted(self.size_counts):
            frac = self.size_histogram[size]
            fh.write(f"{size},{float(frac)!r},{self.size_counts[size]}\n")

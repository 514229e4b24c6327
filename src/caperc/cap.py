"""Color-avoiding component decomposition and empirical size densities."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .graph import (
    EdgeColoredGraph,
    _pairwise_map,
    _vertex_dtype,
    connected_components,
)


def color_avoiding_partition(g: EdgeColoredGraph) -> np.ndarray:
    """Meet of the k per-color partitions: v, w share a block iff for every
    color i they are connected in the projection onto the other colors.

    Returns labels with labels[v] the smallest vertex in v's block, in
    `connected_components`' dtype (int32 for n <= 2^31).
    """
    n = g.n
    # the projection without an edgeless color is the whole graph, which
    # every other projection refines, so only the colors with edges enter
    # the meet; with none of them, each vertex is its own block
    labels = None if g.colors else np.arange(n, dtype=_vertex_dtype(n))
    rows = list(zip(g.offsets, g.offsets[1:]))

    def projection(ab):
        # every color but the one in rows a:b of the color-sorted table:
        # the rows before it and those after it
        a, b = ab
        return connected_components(
            n, [part for part in (g.edges[:a], g.edges[b:]) if part.size])

    # two projections at a time, met in color order, so that at most two
    # projections' labels are held at once
    for i in range(0, len(rows), 2):
        cols = _pairwise_map(projection, rows[i:i + 2], n)
        while cols:
            col = cols.pop(0)
            labels = col if labels is None else _meet(labels, col)
        del col  # free before the next projections
    return labels


def _meet(labels: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Meet of two partitions, each given by labels naming a vertex's block
    by its least vertex; the result names v's block of the meet likewise."""
    n = labels.size
    # if v's label r shares v's col block, r is the least vertex of v's
    # meet block, and else so is v's col root s if it shares v's label
    # take, as in connected_components, gathers by int32 ids faster than
    # indexing; the labels are in range, so mode="clip" changes nothing
    settled = np.take(col, labels, mode="clip") == col
    meet = np.where(settled, labels, col)
    settled |= np.take(labels, col, mode="clip") == labels
    # every vertex of a meet block gets the same two answers, so the rest
    # form whole blocks: the runs of equal keys (labels[v], col[v]) in
    # sorted order, and a stable sort lists each run's vertices in
    # increasing order, so its first is their label
    rest = np.flatnonzero(~settled)
    del settled
    # in int64: labels * n passes 2^31 from about n = 2^16
    key = np.multiply(labels[rest], n, dtype=np.int64)
    key += col[rest]
    order = np.argsort(key, kind="stable")
    key = key[order]
    rest = rest[order]
    head = np.empty(rest.size, dtype=bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    meet[rest] = rest[head][np.cumsum(head) - 1]
    return meet


@dataclass(frozen=True)
class CapDecomposition:
    """Color-avoiding partition plus exact (rational) size bookkeeping; the
    labels are in the graph's vertex dtype (int32 for n <= 2^31)."""

    labels: np.ndarray  # labels[v] = smallest vertex in v's block
    n: int
    size_histogram: dict[int, Fraction]  # size -> fraction of vertices
    size_counts: dict[int, int]          # size -> number of components
    max_fraction: Fraction

    @classmethod
    def from_graph(cls, g: EdgeColoredGraph) -> "CapDecomposition":
        labels = color_avoiding_partition(g)
        # labels are least vertices, so the count at v is the size of the
        # block v is least of (0 at any other vertex), and counting those
        # counts gives the number of blocks of each size, with no sort
        per_size = np.bincount(np.bincount(labels))
        sizes = np.flatnonzero(per_size[1:]) + 1
        counts = per_size[sizes]
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

"""Edge-colored graphs, ECER sampling, and plain connectivity."""

from __future__ import annotations

import warnings
from typing import IO, Iterable, Sequence

import numpy as np

from .params import LambdaVector, as_lambda


def _canonical_edges(edges, n: int, color: int) -> np.ndarray:
    """Validate and canonicalize one color's edge list to a sorted (m, 2)
    int64 array with u < v per row, unique rows, never a view of `edges`."""
    arr = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                   dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"color {color}: edge list must be pairs")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"color {color}: endpoint out of range")
    # u < v rows with strictly rising keys (sample_ecer's) are canonical
    key = arr[:, 0] * n + arr[:, 1]
    if np.all(arr[:, 0] < arr[:, 1]) and np.all(key[1:] > key[:-1]):
        return arr
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(lo == hi):
        raise ValueError(f"color {color}: self-loop")
    arr = np.stack([lo, hi], axis=1)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        raise ValueError(f"color {color}: duplicate edge within one color")
    return arr[order]


class EdgeColoredGraph:
    """n vertices plus k per-color edge sets.

    Within one color each pair appears at most once; the same pair may appear
    in several colors. Immutable after construction.
    """

    def __init__(self, n: int, edge_sets: Sequence[Iterable]):
        if n < 0:
            raise ValueError("negative vertex count")
        if len(edge_sets) < 1:
            raise ValueError("need at least one color")
        self.n = int(n)
        self.edge_sets = tuple(
            _canonical_edges(es, self.n, c) for c, es in enumerate(edge_sets)
        )
        for arr in self.edge_sets:
            arr.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.edge_sets)

    def edge_count(self, color: int) -> int:
        return int(self.edge_sets[color].shape[0])

    def __repr__(self) -> str:
        counts = ",".join(str(self.edge_count(c)) for c in range(self.k))
        return f"EdgeColoredGraph(n={self.n}, k={self.k}, m=[{counts}])"


def _pair_index_to_edge(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode linear indices of the row-major upper-triangle pair enumeration
    ((0,1),(0,2),...,(0,n-1),(1,2),...) into endpoint arrays."""
    idx = idx.astype(np.int64)
    # solve for u in idx >= offset(u) = u*n - u(u+1)/2 - u ... via the
    # triangular-root formula, then fix rounding with a correction pass
    b = 2.0 * n - 1.0
    u = np.floor((b - np.sqrt(b * b - 8.0 * idx)) / 2.0).astype(np.int64)
    u = np.clip(u, 0, n - 2)

    def offset(uu):
        return uu * (2 * n - uu - 1) // 2

    while True:
        too_hi = offset(u) > idx
        too_lo = offset(u + 1) <= idx
        if not (too_hi.any() or too_lo.any()):
            break
        u = u - too_hi.astype(np.int64) + too_lo.astype(np.int64)
        u = np.clip(u, 0, n - 2)
    v = idx - offset(u) + u + 1
    return u, v


def _sample_pair_subset(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing linear pair indices, each of the `total` positions
    included independently with probability p, via geometric skipping."""
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = -1
    expect = int(total * p) + 1
    while pos < total:
        m = max(256, int(1.2 * (expect - sum(len(c) for c in chunks))) + 64)
        gaps = rng.geometric(p, size=m).astype(np.int64)
        pts = pos + np.cumsum(gaps)
        chunks.append(pts)
        pos = int(pts[-1])
    idx = np.concatenate(chunks)
    return idx[idx < total]


def sample_ecer(n: int, vertex_count: int, lam, rng: np.random.Generator) -> EdgeColoredGraph:
    """Sample an ECER graph: vertex_count vertices, per-color edge probability
    1 - exp(-lambda_i / n) on each unordered pair, colors independent.

    The Bernoulli parameter uses n (not vertex_count), which may exceed the
    number of sampled vertices.
    """
    lam = as_lambda(lam)
    if vertex_count > n:
        raise ValueError("vertex_count must not exceed n")
    if vertex_count < 0:
        raise ValueError("negative vertex_count")
    total = vertex_count * (vertex_count - 1) // 2
    edge_sets = []
    color_rngs = rng.spawn(lam.k)  # independent substream per color
    for i, crng in enumerate(color_rngs):
        p = -np.expm1(-lam[i] / n)
        idx = _sample_pair_subset(total, float(p), crng)
        u, v = _pair_index_to_edge(idx, vertex_count)
        edge_sets.append(np.stack([u, v], axis=1))
    return EdgeColoredGraph(vertex_count, edge_sets)


def connected_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Component labels: labels[v] is the smallest vertex in v's component.

    `edges` is any (m, 2) integer array; repeated pairs and either endpoint
    order are fine. Min-label hooking with pointer jumping (Shiloach-Vishkin
    style): each round hooks the larger root of every edge whose roots still
    differ onto the smallest root it meets, then jumps every label to its
    root; the next round sees each such edge as its new pair of roots (the
    first sees the edges themselves). labels[v] <= v throughout, so the
    roots left are the minima.
    """
    labels = np.arange(n, dtype=np.int64)
    lu, lv = edges[:, 0], edges[:, 1]
    while True:
        live = lu != lv
        if not live.any():
            return labels
        lu, lv = lu[live], lv[live]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        lu, lv = labels[lu], labels[lv]


def dump_graph(g: EdgeColoredGraph, fh: IO[str]) -> None:
    """Text dump: header `n k`, then one `color u v` line per colored edge."""
    fh.write(f"{g.n} {g.k}\n")
    for c in range(g.k):
        fh.writelines(f"{c} {u} {v}\n" for u, v in g.edge_sets[c].tolist())


def load_graph(fh: IO[str]) -> EdgeColoredGraph:
    """Inverse of dump_graph: the header `n k`, then `color u v` lines of
    integers in any order; blank lines are skipped."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("bad graph header, expected 'n k'")
    n, k = int(header[0]), int(header[1])
    with warnings.catch_warnings():  # a graph without edges has no data
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
    if rows.size and rows.shape[1] != 3:
        raise ValueError("expected 'color u v' lines")
    bad = (rows[:, 0] < 0) | (rows[:, 0] >= k)
    if bad.any():
        raise ValueError(f"color {rows[bad.argmax(), 0]} out of range")
    # each color's edges in file order
    return EdgeColoredGraph(n, [rows[rows[:, 0] == c, 1:] for c in range(k)])

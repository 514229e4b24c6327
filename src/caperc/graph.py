"""Edge-colored graphs, ECER sampling, and plain connectivity."""

from __future__ import annotations

import math
import re
import warnings
from typing import IO, Iterable, Sequence

import numpy as np

from .params import LambdaVector, as_lambda

# the most vertices whose pair keys u * n + v fit in int64
MAX_N = math.isqrt(np.iinfo(np.int64).max)


def _canonical_edges(edges, n: int, color: int,
                     copy: bool = True) -> np.ndarray:
    """Validate and canonicalize one color's edge list to a sorted (m, 2)
    int64 array with u < v per row, unique rows, column-major so that the u
    and v columns are contiguous. The result is never a view of `edges`
    unless copy is False and `edges` is canonical and column-major
    already."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = (np.array if copy else np.asarray)(edges, dtype=np.int64,
                                             order="F")
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"color {color}: edge list must be pairs")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"color {color}: endpoint out of range")
    u, v = arr[:, 0], arr[:, 1]
    # u < v rows with strictly rising keys (sample_ecer's) are canonical
    key = u * n
    key += v
    if np.all(u < v) and np.all(key[1:] > key[:-1]):
        return arr
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if np.any(lo == hi):
        raise ValueError(f"color {color}: self-loop")
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        raise ValueError(f"color {color}: duplicate edge within one color")
    out = np.empty(arr.shape, dtype=np.int64, order="F")
    np.take(lo, order, out=out[:, 0])
    np.take(hi, order, out=out[:, 1])
    return out


class EdgeColoredGraph:
    """n vertices plus k per-color edge sets.

    Within one color each pair appears at most once; the same pair may appear
    in several colors. Each color's edges are a read-only (m, 2) int64 array
    of u < v rows sorted by (u, v), stored column-major (Fortran order), so
    that the u and v columns that the checks, the hooking and the pair
    gathers read are contiguous. Immutable after construction.
    """

    def __init__(self, n: int, edge_sets: Sequence[Iterable]):
        self._build(n, edge_sets, copy=True)

    @classmethod
    def _adopt(cls, n: int,
               edge_sets: Sequence[np.ndarray]) -> "EdgeColoredGraph":
        """The graph on arrays that nothing else holds: checked and made
        read-only as by the constructor, but kept without a copy."""
        g = cls.__new__(cls)
        g._build(n, edge_sets, copy=False)
        return g

    def _build(self, n: int, edge_sets, copy: bool) -> None:
        if not 0 <= n <= MAX_N:
            raise ValueError(f"vertex count must lie in [0, {MAX_N}]")
        if len(edge_sets) < 1:
            raise ValueError("need at least one color")
        self.n = int(n)
        self.edge_sets = tuple(
            _canonical_edges(es, self.n, c, copy)
            for c, es in enumerate(edge_sets))
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


def _pair_index_to_edge(idx: np.ndarray, n: int) -> np.ndarray:
    """Decode int64 linear indices of the row-major upper-triangle pair
    enumeration ((0,1),(0,2),...,(0,n-1),(1,2),...) into a column-major
    (m, 2) int64 array of (u, v) rows."""
    edges = np.empty((idx.size, 2), dtype=np.int64, order="F")
    u, v = edges[:, 0], edges[:, 1]
    # u is the largest with idx >= offset(u) = u(2n - 1 - u)/2: take the
    # triangular-root formula's floor, then fix rounding in passes
    b = 2.0 * n - 1.0
    buf = np.multiply(idx, -8.0)
    buf += b * b
    np.sqrt(buf, out=buf)
    np.subtract(b, buf, out=buf)
    buf *= 0.5
    np.floor(buf, out=buf)
    np.clip(buf, 0, n - 2, out=buf)
    u[...] = buf
    off = buf.view(np.int64)  # offset(u), in the float buffer's memory
    too_hi = np.empty(idx.size, dtype=bool)
    too_lo = np.empty(idx.size, dtype=bool)
    while True:
        np.subtract(2 * n - 1, u, out=off)
        off *= u
        off //= 2
        np.greater(off, idx, out=too_hi)
        np.subtract(off, u, out=v)  # offset(u + 1) = offset(u) + n - 1 - u
        v += n - 1
        np.less_equal(v, idx, out=too_lo)
        if not (too_hi.any() or too_lo.any()):
            break
        u -= too_hi
        u += too_lo
        np.clip(u, 0, n - 2, out=u)
    np.subtract(idx, off, out=v)
    v += u
    v += 1
    return edges


def _geometric(p: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m draws of rng.geometric(p), the same values and generator state.

    Below p = 1/3 numpy inverts an exponential draw, ceil(-E / log1p(-p)),
    with log1p taken once per draw; here it is taken once per call. Values
    are clamped to 2^62 (numpy clamps at INT64_MAX), which no skip cap
    reaches. From p = 1/3 on, numpy searches, and that is called as it is.
    """
    if p >= 1 / 3:
        return rng.geometric(p, size=m)
    buf = rng.standard_exponential(m)
    with np.errstate(over="ignore"):  # tiny p: the skip is infinite
        buf /= -math.log1p(-p)
    np.ceil(buf, out=buf)
    np.minimum(buf, 2.0 ** 62, out=buf)
    return buf.astype(np.int64)


def _sample_pair_subset(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing linear pair indices, each of the `total` positions
    included independently with probability p, via geometric skipping; the
    skips are rng.geometric's draws, for p < 1/3 by one inversion of an
    exponential draw each (`_geometric`)."""
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    # A skip longer than total passes total all the same, so skips are cut
    # to total + 1. Sums up to the first point at or past total then stay
    # below 2 total + 1, and only later ones can wrap past int64: the loop
    # ends at that first point.
    cap = total + 1
    chunks = []
    pos = -1
    drawn = 0
    expect = int(total * p) + 1
    while True:
        left = max(expect - drawn, 0)
        m = max(256, int(left + 6 * math.sqrt(left)) + 64)
        drawn += m
        pts = _geometric(p, m, rng)
        np.minimum(pts, cap, out=pts)
        np.cumsum(pts, out=pts)
        pts += pos
        past = pts >= total  # sums after the first such point may wrap
        end = int(past.argmax()) if past.any() else m
        if end < m:
            chunks.append(pts[:end])
            break
        chunks.append(pts)
        pos = int(pts[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def sample_ecer(n: int, lam, rng: np.random.Generator) -> EdgeColoredGraph:
    """Sample an ECER graph: n vertices, per-color edge probability
    1 - exp(-lambda_i / n) on each unordered pair, colors independent."""
    lam = as_lambda(lam)
    if not 0 < n <= MAX_N:
        raise ValueError(f"vertex count n must lie in [1, {MAX_N}]")
    total = n * (n - 1) // 2
    edge_sets = []
    color_rngs = rng.spawn(lam.k)  # independent substream per color
    for i, crng in enumerate(color_rngs):
        p = -np.expm1(-lam[i] / n)
        idx = _sample_pair_subset(total, float(p), crng)
        edge_sets.append(_pair_index_to_edge(idx, n))
    return EdgeColoredGraph._adopt(n, edge_sets)


def connected_components(n: int, edges) -> np.ndarray:
    """Component labels: labels[v] is the smallest vertex in v's component.

    `edges` is an (m, 2) integer array, or a list of them whose union is the
    edge set; repeated pairs, self-loops and either endpoint order are fine.
    Min-label hooking with pointer jumping (Shiloach-Vishkin style): each
    round hooks the larger root of every edge whose roots still differ onto
    the smallest root it meets, then jumps every label to its root; the
    next round sees each such edge as its new pair of roots (the first sees
    the edges themselves, one array at a time). labels[v] <= v throughout,
    so the roots left are the minima.
    """
    labels = np.arange(n, dtype=np.int64)
    parts = [edges] if isinstance(edges, np.ndarray) else edges
    pairs = [(e[:, 0], e[:, 1]) for e in parts]
    while pairs:
        for lu, lv in pairs:
            # labels[r] <= r, so of the two calls only the one that hooks
            # the larger root changes anything
            np.minimum.at(labels, lu, lv)
            np.minimum.at(labels, lv, lu)
        jumped = np.empty_like(labels)
        while True:
            # labels are in range, so mode="clip" only spares take's copy
            np.take(labels, labels, out=jumped, mode="clip")
            if np.array_equal(jumped, labels):
                break
            labels, jumped = jumped, labels
        del jumped
        live_pairs = []
        while pairs:  # each array of live roots is dropped once compacted
            lu, lv = pairs.pop()
            lu, lv = labels[lu], labels[lv]
            live = np.flatnonzero(lu != lv)
            if live.size:
                lu = lu[live]
                live_pairs.append((lu, lv[live]))
        pairs = live_pairs
    return labels


def dump_graph(g: EdgeColoredGraph, fh: IO[str]) -> None:
    """Text dump: header `n k`, then one `color u v` line per colored edge."""
    fh.write(f"{g.n} {g.k}\n")
    for c in range(g.k):
        fh.writelines(f"{c} {u} {v}\n" for u, v in g.edge_sets[c].tolist())


def load_graph(fh: IO[str]) -> EdgeColoredGraph:
    """Inverse of dump_graph: the header `n k`, then `color u v` lines of
    integers in any order; blank lines are skipped."""
    header = fh.readline().split()
    # the rows' rule (np.loadtxt's): a sign and ASCII digits, no "1_0"
    if len(header) != 2 or not all(re.fullmatch(r"[+-]?[0-9]+", t)
                                   for t in header):
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
    # one stable sort by color; each color's rows, in file order, copied
    # column-major (a copy even where a one-row slice is a contiguous view)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    bounds = np.searchsorted(rows[:, 0], np.arange(k + 1))
    return EdgeColoredGraph._adopt(
        n, [np.array(rows[a:b, 1:], order="F")
            for a, b in zip(bounds, bounds[1:])])

"""Edge-colored graphs, ECER sampling, and plain connectivity."""

from __future__ import annotations

import bisect
import math
import os
import re
import threading
import warnings
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .params import LambdaVector, as_lambda

# the most vertices whose pair keys u * n + v fit in int64
MAX_N = math.isqrt(np.iinfo(np.int64).max)

# vertices, pairs or pair indices per chunk of the decode, the pointer
# jumps and the compaction: chunks stay in a core's cache, and the helper
# thread and the caller hand the GIL over once per chunk operation
_CHUNK = 1 << 15
# The least n at which a graph's per-color work is shared with the helper
# thread. sample_ecer plus CapDecomposition.from_graph at lambda = (2, 2),
# inline -> helper, paired medians of two sessions (2-core Xeon, numpy
# 2.4): n = 4e3 0.88 -> 1.69 ms; 4e4 6.28 -> 6.09 ms and 7.68 -> 8.26 ms;
# 1e5 14.1 -> 12.8 ms and 25.9 -> 20.4 ms; 2e5 29.2 -> 23.0 ms and 52.3 ->
# 40.3 ms
_PAIR_MIN_N = 100_000
_helper = None  # a one-thread ThreadPoolExecutor, started on first use
_helper_lock = threading.Lock()


def _vertex_dtype(n: int) -> type:
    """The dtype of vertex ids below n: int32 while the largest, n - 1,
    fits it (n <= 2^31), else int64. Pair keys u * n + v, pair offsets and
    other values that can pass 2^31 are computed in int64 explicitly: an
    int32 array times a Python int stays int32 and wraps."""
    return np.int32 if n <= 2**31 else np.int64


def _use_helper(n: int) -> bool:
    """Whether a graph of n vertices shares its per-color work with the
    helper thread: from _PAIR_MIN_N vertices, when this process may run on
    two CPUs or more."""
    return (n >= _PAIR_MIN_N and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _pairwise_map(fn: Callable, items: Sequence, n: int) -> list:
    """[fn(x) for x in items], two at a time for a graph of n vertices: the
    caller runs items 0, 2, ... and one helper thread items 1, 3, ..., so
    numpy's GIL-free loops use two cores. Inline when `_use_helper(n)` is
    false or there is one item."""
    global _helper
    if len(items) < 2 or not _use_helper(n):
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor, wait  # 4 ms at import
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="caperc-graph")
    odd = [_helper.submit(fn, x) for x in items[1::2]]
    try:
        even = [fn(x) for x in items[::2]]
    except BaseException:
        for f in odd:
            f.cancel()
        wait(odd)  # no item of this call outlives it
        raise
    out = [None] * len(items)
    out[::2] = even
    out[1::2] = [f.result() for f in odd]
    return out


class EdgeColoredGraph:
    """n vertices, k colors and one table of colored edges.

    Within one color each pair appears at most once; the same pair may appear
    in several colors. `edges` is a read-only (m, 2) table of vertex ids that
    the graph owns, int32 for n <= 2^31 and int64 above (`_vertex_dtype`),
    its u < v rows sorted by (color, u, v) and stored column-major, so that
    the u and v columns that the checks, the hooking and the pair gathers
    read are contiguous. The rows of colors[j], the j-th color with edges,
    are edges[offsets[j]:offsets[j + 1]], and no part of a graph grows with
    k. Immutable after construction.
    """

    def __init__(self, n: int, edge_lists: Sequence[Iterable]):
        arrays = [np.asarray(es if isinstance(es, np.ndarray) else list(es),
                             dtype=np.int64) for es in edge_lists]
        for c, arr in enumerate(arrays):
            if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
                raise ValueError(f"color {c}: edge list must be pairs")
        counts = np.array([arr.size // 2 for arr in arrays], dtype=np.int64)
        edges = np.empty((counts.sum(), 2), dtype=np.int64, order="F")
        if arrays:
            np.concatenate([arr.reshape(-1, 2) for arr in arrays], out=edges)
        self._build(n, len(arrays), edges, np.arange(len(arrays)), counts)

    def _build(self, n: int, k: int, edges: np.ndarray, colors: np.ndarray,
               counts: np.ndarray) -> None:
        """Keep `edges`, a fresh column-major (m, 2) integer table of
        counts[j] rows for each of the increasing colors[j], checked, sorted
        in place to u < v rows by (color, u, v), cast to `_vertex_dtype(n)`
        if it is in another dtype, and read-only. The checks read the rows
        as given, before the cast, so that an endpoint out of range cannot
        wrap into range. Errors name the color of the first faulty row of
        the first fault: range, loop, repeat."""
        if not 0 <= n <= MAX_N:
            raise ValueError(f"vertex count must lie in [0, {MAX_N}]")
        if k < 1:
            raise ValueError("need at least one color")
        self.n, self.k = int(n), int(k)
        self.colors = tuple(colors[counts > 0].tolist())
        self.offsets = (0, *np.cumsum(counts[counts > 0]).tolist())
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise self._fault(((edges < 0) | (edges >= n)).any(axis=1),
                              "endpoint out of range")
        # of two rows that straddle two colors, either may come first
        straddle = np.array(self.offsets[1:-1], dtype=np.int64) - 1
        u, v = edges[:, 0], edges[:, 1]
        key = np.multiply(u, n, dtype=np.int64)
        key += v
        rising = key[1:] > key[:-1]
        rising[straddle] = True
        # u < v rows whose keys rise within each color (sample_ecer's and
        # graph dumps') are canonical; the rest are sorted
        if not (np.all(u < v) and rising.all()):
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            if np.any(lo == hi):
                raise self._fault(lo == hi, "self-loop")
            key = np.multiply(lo, n, dtype=np.int64)
            key += hi
            order = np.lexsort((key, np.repeat(self.colors,
                                               np.diff(self.offsets))))
            repeat = key[order[1:]] == key[order[:-1]]
            repeat[straddle] = False
            if repeat.any():
                raise self._fault(repeat, "duplicate edge within one color")
            np.take(lo, order, out=u)
            np.take(hi, order, out=v)
        edges = edges.astype(_vertex_dtype(n), order="F", copy=False)
        edges.setflags(write=False)
        self.edges = edges

    def _fault(self, rows: np.ndarray, what: str) -> ValueError:
        j = bisect.bisect_right(self.offsets, int(rows.argmax())) - 1
        return ValueError(f"color {self.colors[j]}: {what}")

    def color_edges(self, color: int) -> np.ndarray:
        """Color's edges: a read-only view of its (m, 2) rows of the table."""
        if not 0 <= color < self.k:
            raise IndexError(f"color {color} out of range")
        j = bisect.bisect_left(self.colors, color)
        if j == len(self.colors) or self.colors[j] != color:
            return self.edges[:0]
        return self.edges[self.offsets[j]:self.offsets[j + 1]]

    def edge_count(self, color: int) -> int:
        return len(self.color_edges(color))


def _pair_index_to_edge(idx: np.ndarray, n: int,
                        edges: np.ndarray) -> np.ndarray:
    """Decode int64 linear indices of the row-major upper-triangle pair
    enumeration ((0,1),(0,2),...,(0,n-1),(1,2),...) into the (u, v) rows of
    `edges`, an (m, 2) int32 or int64 array with contiguous columns, and
    return it; a chunk at a time, so that the buffers are chunk-sized. The
    offsets are computed in int64 whatever the table's dtype."""
    for a in range(0, idx.size, _CHUNK):
        _decode_chunk(idx[a:a + _CHUNK], n, edges[a:a + _CHUNK])
    return edges


def _decode_chunk(idx: np.ndarray, n: int, edges: np.ndarray) -> None:
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
    nxt = np.empty(idx.size, dtype=np.int64)  # offset(u + 1)
    too_hi = np.empty(idx.size, dtype=bool)
    too_lo = np.empty(idx.size, dtype=bool)
    while True:
        # in int64: 2n - 1 leaves int32 from n = 2^30, the offsets from
        # about n = 2^16
        np.subtract(2 * n - 1, u, out=off, dtype=np.int64)
        off *= u
        np.right_shift(off, 1, out=off)  # u(2n - 1 - u) is even and >= 0
        np.greater(off, idx, out=too_hi)
        np.subtract(off, u, out=nxt)  # offset(u) + n - 1 - u
        nxt += n - 1
        np.less_equal(nxt, idx, out=too_lo)
        if not (too_hi.any() or too_lo.any()):
            break
        u -= too_hi
        u += too_lo
        np.clip(u, 0, n - 2, out=u)
    np.subtract(idx, off, out=v)
    v += u
    v += 1


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
    draws = [(float(-np.expm1(-lam[i] / n)), crng)  # a stream per color
             for i, crng in enumerate(rng.spawn(lam.k))]
    idx = _pairwise_map(lambda d: _sample_pair_subset(total, *d), draws, n)
    counts = np.array([ix.size for ix in idx], dtype=np.int64)
    ends = np.cumsum(counts).tolist()
    edges = np.empty((ends[-1], 2), dtype=_vertex_dtype(n), order="F")
    _pairwise_map(lambda c: _pair_index_to_edge(  # each color into its rows
        idx[c], n, edges[ends[c] - idx[c].size:ends[c]]), range(lam.k), n)
    del idx  # free before the check
    g = EdgeColoredGraph.__new__(EdgeColoredGraph)
    g._build(n, lam.k, edges, np.arange(lam.k), counts)
    return g


def connected_components(n: int, edges) -> np.ndarray:
    """Component labels: labels[v] is the smallest vertex in v's component.

    `edges` is an (m, 2) integer array, or a list of them whose union is the
    edge set; repeated pairs, self-loops and either endpoint order are fine.
    Min-label hooking with pointer jumping (Shiloach-Vishkin style): each
    round hooks the larger root of every edge whose roots still differ onto
    the smallest root it meets, then jumps every label to its root; the
    next round sees each such edge as its new pair of roots (the first sees
    the edges themselves, one array at a time). labels[v] <= v throughout,
    so the roots left are the minima. Above one chunk of vertices the jumps
    work in place and the compaction a chunk at a time, so no second
    n-word array is held. The labels, and so the live pairs, are in
    `_vertex_dtype(n)`: int32 for n <= 2^31.
    """
    labels = np.arange(n, dtype=_vertex_dtype(n))
    parts = [edges] if isinstance(edges, np.ndarray) else edges
    pairs = [(e[:, 0], e[:, 1]) for e in parts]
    buf = np.empty(min(n, _CHUNK), dtype=labels.dtype)
    while pairs:
        for lu, lv in pairs:
            # labels[r] <= r, so of the two calls only the one that hooks
            # the larger root changes anything
            np.minimum.at(labels, lu, lv)
            np.minimum.at(labels, lv, lu)
        # jump until a jump changes no label: then every parent is a root.
        # labels are in range, so mode="clip" only spares take's copy.
        if n <= _CHUNK:  # one chunk: jump between labels and buf
            while True:
                np.take(labels, labels, out=buf, mode="clip")
                if (buf == labels).all():
                    break
                labels, buf = buf, labels
        else:
            # in place, the chunks in order, each until it holds only roots:
            # a later chunk's parents in it are then reached in one jump, and
            # reading parents already jumped only shortens paths
            for a in range(0, n, _CHUNK):
                part = labels[a:a + _CHUNK]
                jumped = buf[:part.size]
                while True:
                    np.take(labels, part, out=jumped, mode="clip")
                    if (jumped == part).all():
                        break
                    part[...] = jumped
        # the pairs of roots that still differ, a chunk at a time; each
        # array of pairs is dropped once read. take gathers by int32 ids
        # faster than indexing, which casts them first.
        live_pairs = []
        while pairs:
            lu, lv = pairs.pop()
            for a in range(0, lu.size, _CHUNK):
                cu, cv = (np.take(labels, x[a:a + _CHUNK], mode="clip")
                          for x in (lu, lv))
                live = np.flatnonzero(cu != cv)
                if live.size:
                    live_pairs.append((cu[live], cv[live]))
        pairs = live_pairs
    return labels


def dump_graph(g: EdgeColoredGraph, fh: IO[str]) -> None:
    """Text dump: header `n k`, then one `color u v` line per colored edge."""
    fh.write(f"{g.n} {g.k}\n")
    for c, a, b in zip(g.colors, g.offsets, g.offsets[1:]):
        fh.writelines(f"{c} {u} {v}\n" for u, v in g.edges[a:b].tolist())


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
    rows = rows.reshape(-1, 3)
    bad = (rows[:, 0] < 0) | (rows[:, 0] >= k)
    if bad.any():
        raise ValueError(f"color {rows[bad.argmax(), 0]} out of range")
    # one stable sort by color puts each color's rows, in file order, in
    # their place in the table
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    colors, counts = np.unique(rows[:, 0], return_counts=True)
    g = EdgeColoredGraph.__new__(EdgeColoredGraph)
    g._build(n, k, np.array(rows[:, 1:], order="F"), colors, counts)
    return g

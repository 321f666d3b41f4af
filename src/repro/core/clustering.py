"""DBSCAN and (m,eps)-cluster extraction for trajectory snapshots.

The convoy literature (Jeung et al.; Yoon & Shahabi; this paper) uses one
parameter ``m`` both as DBSCAN's ``minPts`` and as the minimum convoy
size: an (m,eps)-cluster is a maximal density-connected set of size >= m
mined with ``minPts = m``.

One call clusters many *segments*: consecutive slices of the input rows,
given by their sizes, each a snapshot or a restriction ``DB[t]|O``. A
segment never sees another's points, and its labels are the ones it would
get alone. k/2-hop clusters all of a query's benchmark snapshots in one
call, and all the restrictions of one HWMT, extension or validation round
in one call, so numpy's per-call cost is paid once per round rather than
once per 3–10 point restriction.

Two modes, one labelling:

* ``grid`` (k/2-hop and VCoDA*) — for calls of ``GRID_MIN_POINTS`` rows
  or more, an exact numpy grid DBSCAN (Gunawan 2013; Gan & Tao, SIGMOD
  2015). Each point's eps-sized cell gets the key ``row * stride + cy``
  with one row per ``(segment, cx)``, so the cells
  ``(cx + dx, cy - 1 … cy + 1)`` of one ``dx`` are a run of consecutive
  keys. Two ``searchsorted`` range probes per point cover half the 3x3
  block around its cell: its own cell with the next one up (``dx = 0``)
  and the three cells of ``dx = +1``; a pair across two cells is found
  from one side and mirrored. Candidates pass the same
  ``dx² + dy² <= eps²`` test as below, core points are counted with
  ``bincount``, and clusters are the components of the core–core edges,
  found by min-label hooking with pointer jumping. Smaller calls take
  the pairwise path.
* ``naive`` (VCoDA) — always the pairwise path, segment by segment: the
  full O(n²) distance matrix and a breadth-first search from each
  unvisited core point, the un-indexed clustering cost the paper
  attributes to VCoDA, and the oracle the grid path is tested against.

``GRID_MIN_POINTS`` is where the grid pipeline stops losing, measured in
CPU time on one core of a 4-core x86 box (numpy 1.26). The pipeline
costs ~80 µs a call however small the call; the pairwise path ~20 µs a
segment plus its O(n²) work. One segment of uniform points with ~4
eps-neighbours each takes 82 / 92 / 96 / 127 µs on the grid at
n = 8 / 16 / 32 / 64 and 42 / 58 / 108 / 280 µs pairwise; 2 / 4 / 8
segments of 5 points take 87 / 83 / 91 µs against 52 / 91 / 159 µs.
Replaying every HWMT and extension round of one sweep, the 945
tdrive-file rounds took 84 ms with the cutoff at 16 rows, 96 ms at 32
and 132 ms all pairwise, and the 516 trucks-rdbms rounds 55 / 56 / 63 ms;
clustering each restriction in its own call, as before rounds were
batched, took 125 and 62 ms.

Cell keys cannot wrap. Cells are rebased on the call's smallest cell, and
a row and a segment each span their actual extent plus one guard cell
that no point occupies, so no probe range reaches into another row or
segment. Where those spans would not fit in int64 (points ~2³¹ cells
apart on both axes), each axis is first squeezed to its distinct cells,
keeping cells one apart adjacent and putting all others two apart.

Both modes give identical labels, not just the same partition. Clusters
are numbered in order of their lowest-index core point, the order the
search discovers them, and a border point (not core, within eps of a
core point) belongs to the adjacent cluster that comes first in that
order. Border ownership therefore depends on row order: callers pass a
segment's rows in ``oid`` order, as every store serves them.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

NOISE = -1

#: ``mode="grid"`` clusters a call of this many rows or more with the numpy
#: grid pipeline, a smaller one with the pairwise path, segment by segment
#: (the module docstring has the measurement).
GRID_MIN_POINTS = 16

#: one query's restricted reclusterings, (t, objects) → the (m,eps)-clusters
#: of DB[t]|objects. HWMT, extension and validation share it, so each
#: restriction is read and clustered once. Its entries hold only for the
#: store, m and eps of that query.
Memo = dict[tuple[int, frozenset[int]], list[frozenset[int]]]


def _dense(v: np.ndarray) -> np.ndarray:
    """Integer-valued floats ``v`` (±inf included) as int64 ranks below
    2·len(v): values one apart stay one apart, others end up two apart."""
    u, inv = np.unique(v, return_inverse=True)
    return np.concatenate([[0], np.cumsum(np.minimum(np.diff(u), 2))]).astype(np.int64)[inv]


def _cell_keys(xy: np.ndarray, eps: float, seg: np.ndarray) -> tuple[np.ndarray, int]:
    """The key ``row * stride + cy`` of each point's eps-sized cell, with
    ``row`` one per (segment, cx), and the stride; keys lie in [0, 2⁶²)."""
    # One axis at a time: numpy is several times slower along axis 0 of xy.
    cells = [np.floor(xy[:, 0] / eps), np.floor(xy[:, 1] / eps)]
    low = [c.min() for c in cells]
    # A segment's rows and a row's cells, each with one empty guard cell.
    width, stride = (float(c.max() - c0) + 2 for c, c0 in zip(cells, low))
    # Rebased cells are exact below 2⁵³; both tests fail for inf and nan.
    if max(width, stride) < 2.0**53 and (int(seg[-1]) + 1) * width * stride < 2.0**62:
        cx, cy = ((c - c0).astype(np.int64) for c, c0 in zip(cells, low))
        row = seg * int(width) + cx
    else:
        cx, cy = map(_dense, cells)
        row = _dense(seg * (cx.max() + 2) + cx)
        stride = cy.max() + 2
    return row * int(stride) + cy, int(stride)


def _eps_pairs(xy: np.ndarray, eps: float, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(i, j)`` within eps in one segment, ``i == j``
    included, from the 3x3 block of eps-sized cells around each point."""
    key, stride = _cell_keys(xy, eps, seg)
    order = np.argsort(key)
    skey = key[order]
    # Half the block is two runs of consecutive keys: the point's own cell
    # and the next one up its row (k … k + 1), and three cells of the next
    # row (k + stride - 1 … k + stride + 1). Keys are integers, so the run
    # of keys a … b is skey[lo:hi] with lo, hi the slots of a and b + 1.
    lo, hi = np.searchsorted(
        skey, np.concatenate([skey, skey + stride - 1, skey + 2, skey + stride + 2])
    ).reshape(2, -1)
    cnt = hi - lo
    # Query q = probe * n + position asks for the run skey[lo[q]:hi[q]].
    src = np.repeat(np.concatenate([order, order]), cnt)
    dst = order[np.arange(len(src)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)]
    x, y = xy[:, 0], xy[:, 1]
    dx, dy = x[dst] - x[src], y[dst] - y[src]
    keep = dx * dx + dy * dy <= eps * eps
    src, dst = src[keep], dst[keep]
    # The other half of the block: a pair across two cells, seen from the
    # other cell.
    cross = key[src] != key[dst]
    return np.concatenate([src, dst[cross]]), np.concatenate([dst, src[cross]])


def _grid_labels(
    xy: np.ndarray, eps: float, min_pts: int, seg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """DBSCAN from the eps-pairs, without a per-point loop: see
    :func:`_labels` for what it returns."""
    n = len(xy)
    src, dst = _eps_pairs(xy, eps, seg)
    core = np.bincount(src, minlength=n) >= min_pts
    edge = core[src] & core[dst]
    cs, cd = src[edge], dst[edge]
    # root[i] <= i always points into i's component. Each round hooks every
    # root under the smallest root across its edges, then jumps pointers
    # until each point holds its root; at the fixed point every component
    # has one root, its lowest index.
    idx = np.arange(n)
    root = idx
    while True:
        new = root.copy()
        np.minimum.at(new, root[cs], root[cd])
        while ((jump := new[new]) != new).any():
            new = jump
        if not (new != root).any():
            break
        root = new
    first = np.where(core, root, n)  # n marks noise
    border = ~core[src] & core[dst]
    np.minimum.at(first, src[border], root[dst[border]])
    heads = np.flatnonzero(core & (root == idx))
    labels = np.searchsorted(heads, first)
    labels[first == n] = NOISE
    return labels, seg[heads]


def _naive_labels(xy: np.ndarray, eps: float, min_pts: int) -> list[int]:
    """DBSCAN labels of one segment by BFS over the full distance matrix."""
    # Plain lists: indexing numpy arrays one element at a time would
    # dominate this loop.
    n = len(xy)
    labels = [NOISE] * n
    d = xy[:, None, :] - xy[None, :, :]
    nbrs = [np.flatnonzero(row).tolist() for row in (d * d).sum(axis=2) <= eps * eps]
    core = [len(a) >= min_pts for a in nbrs]
    cid = 0
    for i in range(n):
        if labels[i] != NOISE or not core[i]:
            continue
        # BFS over density-reachable points from core point i.
        labels[i] = cid
        queue = list(nbrs[i])
        while queue:
            j = queue.pop()
            if labels[j] == NOISE:
                labels[j] = cid
                if core[j]:
                    queue.extend(nbrs[j])
        cid += 1
    return labels


def _labels(
    xy: np.ndarray, eps: float, min_pts: int, sizes: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, segment of each cluster): clusters numbered across the
    call, segment by segment and within one by lowest core index; NOISE
    for noise."""
    if mode == "grid" and len(xy) >= max(GRID_MIN_POINTS, 1):
        return _grid_labels(xy, eps, min_pts, np.repeat(np.arange(len(sizes)), sizes))
    labels: list[int] = []
    cseg: list[int] = []
    bounds = np.cumsum(sizes).tolist()
    for s, (a, b) in enumerate(zip([0, *bounds], bounds)):
        one = _naive_labels(xy[a:b], eps, min_pts)
        labels += [c + len(cseg) if c != NOISE else NOISE for c in one]
        cseg += [s] * (max(one, default=NOISE) + 1)
    return np.array(labels, dtype=np.int64), np.array(cseg, dtype=np.int64)


def dbscan(xy: np.ndarray, eps: float, min_pts: int, *, mode: str = "grid") -> np.ndarray:
    """Exact DBSCAN labels for one snapshot.

    Returns an int array: ``NOISE`` (-1) for noise, else a cluster id
    (0-based, ordered by each cluster's lowest core index). A border
    point joins the first such cluster it is within eps of.
    """
    return _labels(xy, eps, min_pts, np.array([len(xy)]), mode)[0]


def meps_clusters(
    oids: np.ndarray,
    xy: np.ndarray,
    m: int,
    eps: float,
    sizes: Sequence[int] | np.ndarray | None = None,
    *,
    mode: str = "grid",
) -> list[list[frozenset[int]]]:
    """(m,eps)-clusters of every segment: DBSCAN(minPts=m) clusters with
    size >= m, as frozensets of object ids in label order, one list per
    segment. ``sizes`` are the row counts of the consecutive segments
    (default: one segment); one snapshot's clusters are
    ``meps_clusters(oids, xy, m, eps)[0]``.

    Clusters in one segment are pairwise disjoint (every point gets at
    most one label), which `candidate_clusters` relies on.
    """
    sizes = np.asarray([len(oids)] if sizes is None else sizes, dtype=np.int64)
    if sizes.sum() != len(oids) or (sizes < 0).any():
        raise ValueError(f"segment sizes must be >= 0 and sum to {len(oids)} rows")
    labels, cseg = _labels(xy, eps, m, sizes, mode)
    member = np.flatnonzero(labels != NOISE)
    ends = np.cumsum(np.bincount(labels[member], minlength=len(cseg))).tolist()
    flat = oids[member[np.argsort(labels[member])]].tolist()
    out: list[list[frozenset[int]]] = [[] for _ in range(len(sizes))]
    for s, a, b in zip(cseg.tolist(), [0, *ends], ends):
        if b - a >= m:
            out[s].append(frozenset(flat[a:b]))
    return out

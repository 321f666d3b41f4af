"""DBSCAN and (m,eps)-cluster extraction for trajectory snapshots.

The convoy literature (Jeung et al.; Yoon & Shahabi; this paper) uses one
parameter ``m`` both as DBSCAN's ``minPts`` and as the minimum convoy
size: an (m,eps)-cluster is a maximal density-connected set of size >= m
mined with ``minPts = m``.

Two modes, one labelling:

* ``grid`` (k/2-hop and VCoDA*) — for ``GRID_MIN_POINTS`` points or more,
  an exact numpy grid DBSCAN (Gunawan 2013; Gan & Tao, SIGMOD 2015):
  points are sorted by the key of their eps-sized cell, the 9 cells
  around each point are probed with ``searchsorted``, candidates pass the
  same ``dx² + dy² <= eps²`` test as below, core points are counted with
  ``bincount``, and clusters are the components of the core–core edges,
  found by min-label hooking with pointer jumping. Smaller inputs — the
  3–10 point reclusters of HWMT, extension and validation — take the
  pairwise path, where numpy's per-call overhead would dominate.
* ``naive`` (VCoDA) — always the pairwise path: the full O(n²) distance
  matrix and a breadth-first search from each unvisited core point, the
  un-indexed clustering cost the paper attributes to VCoDA, and the
  oracle the grid path is tested against.

``GRID_MIN_POINTS`` is where the grid path stops losing. It was measured
on one core of a 4-core x86 box (numpy 1.26) with uniform random points
at three densities: with ~9 eps-neighbours per point the pairwise path
takes 44 / 86 / 169 / 278 µs at n = 8 / 16 / 32 / 48 and the grid path
115 / 150 / 176 / 232 µs; when all points are within eps of each other
the two meet at n ≈ 24, with ~2 neighbours at n ≈ 32.

Both paths give identical labels, not just the same partition. Clusters
are numbered in order of their lowest-index core point, the order the
search discovers them, and a border point (not core, within eps of a
core point) belongs to the adjacent cluster that comes first in that
order. Border ownership therefore depends on row order: callers pass a
snapshot's rows in ``oid`` order, as every store serves them.
"""
from __future__ import annotations

import numpy as np

NOISE = -1

#: ``mode="grid"`` clusters this many points or more with the numpy grid
#: pipeline, fewer with the pairwise path (the module docstring has the
#: measurement).
GRID_MIN_POINTS = 32

#: a cell key is ``cx * _ROW + cy``; it wraps in int64 when cell indices
#: are large, which only lets cells share a key: the extra candidates fail
#: the exact distance test, and the 9 probe offsets stay distinct.
_ROW = 1 << 32
_PROBES = np.array([dx * _ROW + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])

#: one query's restricted reclusterings, (t, objects) → the (m,eps)-clusters
#: of DB[t]|objects. HWMT, extension and validation share it, so each
#: restriction is read and clustered once. Its entries hold only for the
#: store, m and eps of that query.
Memo = dict[tuple[int, frozenset[int]], list[frozenset[int]]]


def _neighbors_naive(xy: np.ndarray, eps: float) -> list[list[int]]:
    """eps-neighbor index lists via the full distance matrix (O(n^2))."""
    d = xy[:, None, :] - xy[None, :, :]
    within = (d * d).sum(axis=2) <= eps * eps
    return [np.flatnonzero(row).tolist() for row in within]


def _eps_pairs(xy: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(i, j)`` within eps, ``i == j`` included, from
    the 3x3 block of eps-sized cells around each point."""
    cells = np.floor(xy / eps).astype(np.int64)
    key = cells[:, 0] * _ROW + cells[:, 1]
    order = np.argsort(key, kind="stable")
    skey = key[order]
    want = (skey + _PROBES[:, None]).ravel()
    lo = np.searchsorted(skey, want, "left")
    cnt = np.searchsorted(skey, want, "right") - lo
    # Query q = probe * n + position asks for the run skey[lo[q]:lo[q] + cnt[q]].
    src = np.repeat(np.tile(order, len(_PROBES)), cnt)
    dst = order[np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)]
    x, y = xy[:, 0], xy[:, 1]
    dx, dy = x[dst] - x[src], y[dst] - y[src]
    keep = dx * dx + dy * dy <= eps * eps
    return src[keep], dst[keep]


def _dbscan_grid(xy: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels from the eps-pairs, without a per-point loop."""
    n = len(xy)
    src, dst = _eps_pairs(xy, eps)
    core = np.bincount(src, minlength=n) >= min_pts
    edge = core[src] & core[dst]
    cs, cd = src[edge], dst[edge]
    # root[i] <= i always points into i's component. Each round hooks every
    # root under the smallest root across its edges, then jumps pointers
    # until each point holds its root; at the fixed point every component
    # has one root, its lowest index.
    root = np.arange(n)
    while True:
        new = root.copy()
        np.minimum.at(new, root[cs], root[cd])
        while not np.array_equal(jump := new[new], new):
            new = jump
        if np.array_equal(new, root):
            break
        root = new
    first = np.where(core, root, n)  # n marks noise
    border = ~core[src] & core[dst]
    np.minimum.at(first, src[border], root[dst[border]])
    labels = np.searchsorted(np.flatnonzero(core & (root == np.arange(n))), first)
    labels[first == n] = NOISE
    return labels


def dbscan(xy: np.ndarray, eps: float, min_pts: int, *, mode: str = "grid") -> np.ndarray:
    """Exact DBSCAN labels for one snapshot.

    Returns an int array: ``NOISE`` (-1) for noise, else a cluster id
    (0-based, ordered by each cluster's lowest core index). A border
    point joins the first such cluster it is within eps of.
    """
    n = len(xy)
    if mode == "grid" and n >= GRID_MIN_POINTS:
        return _dbscan_grid(xy, eps, min_pts)
    # Plain lists: indexing numpy arrays one element at a time would
    # dominate this loop.
    labels = [NOISE] * n
    nbrs = _neighbors_naive(xy, eps)
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
    return np.array(labels, dtype=np.int64)


def meps_clusters(
    oids: np.ndarray, xy: np.ndarray, m: int, eps: float, *, mode: str = "grid"
) -> list[frozenset[int]]:
    """(m,eps)-clusters of one snapshot: DBSCAN(minPts=m) clusters with
    size >= m, returned as frozensets of object ids in label order.

    Clusters at a single timestamp are pairwise disjoint (every point
    gets at most one label), which `candidate_clusters` relies on.
    """
    labels = dbscan(xy, eps, m, mode=mode)
    out: list[frozenset[int]] = []
    for c in range(labels.max() + 1 if len(labels) else 0):
        members = oids[labels == c]
        if len(members) >= m:
            out.append(frozenset(members.tolist()))
    return out

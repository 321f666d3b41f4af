"""Expected convoys for every benchmark query, computed outside the timed region.

The reference is VCoDA*: full clustering of *every* snapshot (no k/2-hop
pruning), the exhaustive sweep for maximal partially connected convoys,
then fully-connected validation. Full clustering is the expensive step,
so it is done here by an independent, vectorised DBSCAN that clusters all
snapshots of the dataset at once with NumPy. It reproduces the program's
DBSCAN labels exactly:

* a point is *core* when at least ``m`` points (itself included) lie
  within ``eps``, with the same ``dx² + dy² <= eps²`` test;
* core points connected through core-core eps-edges form one cluster;
* a border point joins the adjacent cluster whose lowest-index core point
  comes first, because sequential DBSCAN discovers clusters in the order
  of their lowest core index and never relabels a point;
* clusters of fewer than ``m`` points are dropped.

Snapshot rows are in ``oid`` order, as every store returns them.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.convoy import Convoy
from repro.core.sweep import sweep_maximal_convoys
from repro.core.validate import validate
from repro.stores import FileStore

_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _eps_pairs(t: np.ndarray, xy: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j), i == j included, with the same t and
    distance <= eps, found by binning points into eps-sized grid cells."""
    n = len(t)
    cells = np.floor(xy / eps).astype(np.int64)
    cx = cells[:, 0] - cells[:, 0].min() + 1
    cy = cells[:, 1] - cells[:, 1].min() + 1
    width = int(cy.max()) + 2
    height = int(cx.max()) + 2
    key = (t - t.min()) * (height * width) + cx * width + cy
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    src_parts, dst_parts = [], []
    for dx, dy in _OFFSETS:
        # Sorted queries keep the binary searches cache-friendly.
        want = sorted_key + dx * width + dy
        lo = np.searchsorted(sorted_key, want, "left")
        cnt = np.searchsorted(sorted_key, want, "right") - lo
        src = np.repeat(order, cnt)
        first = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        src_parts.append(src)
        dst_parts.append(order[np.arange(len(src)) + first])
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    d = xy[dst] - xy[src]
    keep = (d * d).sum(axis=1) <= eps * eps
    return src[keep], dst[keep]


def _dbscan_labels(n: int, src: np.ndarray, dst: np.ndarray, m: int) -> np.ndarray:
    """Cluster label per point: the index of the cluster's lowest core
    point, or ``n`` for noise."""
    core = np.bincount(src, minlength=n) >= m
    both = core[src] & core[dst]
    cs, cd = src[both], dst[both]
    lab = np.where(core, np.arange(n), n)
    while True:  # min-label propagation with pointer jumping
        new = lab.copy()
        np.minimum.at(new, cs, lab[cd])
        new[core] = new[new[core]]
        if np.array_equal(new, lab):
            break
        lab = new
    border = ~core[src] & core[dst]
    border_lab = np.full(n, n)
    np.minimum.at(border_lab, src[border], lab[dst[border]])
    return np.where(core, lab, border_lab)


def _cluster_sequence(
    t: np.ndarray, oid: np.ndarray, lab: np.ndarray, m: int
) -> list[tuple[int, list[frozenset[int]]]]:
    """Labels → (m,eps)-clusters of every timestamp from Ts to Te, in time order."""
    n = len(t)
    clustered = np.flatnonzero(lab < n)
    clustered = clustered[np.argsort(lab[clustered], kind="stable")]
    groups = np.split(clustered, np.flatnonzero(np.diff(lab[clustered])) + 1)
    per_t: dict[int, list[frozenset[int]]] = {}
    for g in groups:
        if len(g) >= m:
            per_t.setdefault(int(t[g[0]]), []).append(frozenset(oid[g].tolist()))
    return [(ti, per_t.get(ti, [])) for ti in range(int(t.min()), int(t.max()) + 1)]


def expected_convoys(
    df: pd.DataFrame, queries: list[tuple[int, int, float]]
) -> dict[tuple[int, int, float], list[Convoy]]:
    """Maximal fully-connected convoys of each (m, k, eps) query, by VCoDA*.

    Finds eps-neighbours once per eps, clusters once per (m, eps), then
    sweeps and validates once per k.
    """
    store = FileStore(df)
    frame = store_frame(df)
    t = frame["t"].to_numpy()
    oid = frame["oid"].to_numpy()
    xy = frame[["x", "y"]].to_numpy()
    out: dict[tuple[int, int, float], list[Convoy]] = {}
    for eps in sorted({eps for _m, _k, eps in queries}):
        src, dst = _eps_pairs(t, xy, eps)
        for m in sorted({m for m, _k, qe in queries if qe == eps}):
            seq = _cluster_sequence(t, oid, _dbscan_labels(len(t), src, dst, m), m)
            for k in sorted({k for qm, k, qe in queries if (qm, qe) == (m, eps)}):
                pccd = sweep_maximal_convoys(seq, m, k)
                out[(m, k, eps)] = validate(store, pccd, m, k, eps)
    return out


def store_frame(df: pd.DataFrame) -> pd.DataFrame:
    """The frame in the row order every store serves snapshots in."""
    return df[["t", "oid", "x", "y"]].sort_values(["t", "oid"], ignore_index=True)

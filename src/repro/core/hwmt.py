"""Hop-Window Mining Tree (paper §4.3, Algorithm 2, Figures 4/6, Table 2).

HWMT validates the togetherness of candidate-cluster objects at the
*interior* timestamps of a hop-window, visiting them in binary-bisection
(farthest-first) order: the root is the middle timestamp, the next level
the middles of the two halves, and so on. Coincidental togetherness is
cheapest to refute at distant timestamps, so whole windows are abandoned
after only 1–2 reclusterings when no convoy spans them.

Reclustering chains *per timestamp* (the surviving clusters at (2,1)
are the input at (2,2)), exactly as the paper's Table 2 walks through
its Figure 6 example; Algorithm 2's pseudocode is ambiguous between
per-timestamp and per-level chaining, but both yield the same final
cluster set — chaining per timestamp simply prunes faster.

Hop-windows are independent (the property the paper points to for
distribution), so :func:`hwmt` advances all of a query's windows in
lockstep: each round takes every live window one bisection timestamp
further, and the round's restrictions are read in one batched store call
(:func:`recluster`). A window still reads only the timestamps it would
read alone, and stops at the first one that kills all its candidates.
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.core.clustering import Memo, meps_clusters
from repro.core.convoy import Convoy
from repro.stores.base import TrajectoryStore

#: a restriction DB[t]|O of the dataset, as (t, O)
Key = tuple[int, frozenset[int]]


def hwmt_order(lo: int, hi: int) -> list[list[int]]:
    """Bisection visit order of the open interval (lo, hi).

    Returns levels (root first); each level's timestamps are ordered
    left-to-right, matching Figure 4: for (0, 8) → [[4], [2, 6],
    [1, 3, 5, 7]].
    """
    levels: list[list[int]] = []
    frontier = [(lo, hi)]
    while frontier:
        level: list[int] = []
        nxt: list[tuple[int, int]] = []
        for a, b in frontier:
            if b - a <= 1:
                continue
            mid = (a + b) // 2
            level.append(mid)
            nxt.extend([(a, mid), (mid, b)])
        if level:
            levels.append(level)
        frontier = nxt
    return levels


def recluster(
    store: TrajectoryStore,
    keys: Sequence[Key],
    m: int,
    eps: float,
    memo: Memo | None = None,
    cluster: Callable[..., list[frozenset[int]]] | None = None,
) -> list[list[frozenset[int]]]:
    """reCluster(DB[t]|O) for every key (t, O) → its (m,eps)-clusters, in
    key order.

    A key already in ``memo`` is neither read nor clustered again. The
    others are read in one store call and clustered in one call, one
    segment per key: its own rows, in ``oid`` order. Then they are added
    to the memo. ``cluster`` is called as ``cluster(oids, xy, m, eps,
    sizes)``; it defaults to :func:`meps_clusters` as this module names it,
    and a caller passes its own name for it so that the clustering stays
    attributed to that caller.
    """
    memo = {} if memo is None else memo
    cluster = meps_clusters if cluster is None else cluster
    todo = list(dict.fromkeys(key for key in keys if key not in memo))
    if todo:
        got, xy = store.points([t for t, _objs in todo], [objs for _t, objs in todo])
        objs = [sorted(o) for _t, o in todo]
        n = [len(o) for o in objs]
        rows = _rows(
            got,
            np.repeat(np.array([t for t, _o in todo], dtype=np.int64), n),
            np.fromiter(chain.from_iterable(objs), dtype=np.int64, count=sum(n)),
        )
        hit = rows >= 0  # an object without a point at t has no row
        sizes = np.bincount(np.repeat(np.arange(len(todo)), n)[hit], minlength=len(todo))
        rows = rows[hit]
        memo.update(zip(todo, cluster(got[rows, 1], xy[rows], m, eps, sizes)))
    return [memo[key] for key in keys]


#: a (t, oid) key as one record, which numpy compares field by field
_KEY = np.dtype([("t", np.int64), ("oid", np.int64)])


def _rows(got: np.ndarray, t: np.ndarray, oid: np.ndarray) -> np.ndarray:
    """The row of each key ``(t[i], oid[i])`` in ``got``, distinct (t, oid)
    keys in that order, or -1 where it has none.

    Keys are compared as (t, oid) records, so no key is assumed to fit a
    packed integer."""
    if not len(got):
        return np.full(len(t), -1)
    have = np.ascontiguousarray(got, dtype=np.int64).view(_KEY).ravel()
    want = np.empty(len(t), _KEY)
    want["t"], want["oid"] = t, oid
    pos = np.minimum(np.searchsorted(have, want), len(have) - 1)
    return np.where(have[pos] == want, pos, -1)


def hwmt(
    store: TrajectoryStore,
    windows: Sequence[tuple[int, int]],
    ccs: Sequence[list[frozenset[int]]],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[list[Convoy]]:
    """Mine the 1st-order spanning convoys of every hop-window.

    ``ccs[i]`` is window ``i``'s candidate cluster set (already
    size-filtered). Returns, per window, its spanning convoys with
    lifespan set to the *bordering benchmark points* [b_i, b_{i+1}]
    (Algorithm 2 line 11): none as soon as one timestamp kills all its
    candidates. Every round reclusters each live window's candidates at
    its next bisection timestamp, all windows in one :func:`recluster`.
    """
    orders = [[t for level in hwmt_order(*w) for t in level] for w in windows]
    groups = [list(cc) for cc in ccs]
    live = [i for i, g in enumerate(groups) if g]
    step = 0
    while live := [i for i in live if step < len(orders[i])]:
        keys = [(orders[i][step], g) for i in live for g in groups[i]]
        found = iter(recluster(store, keys, m, eps, memo))
        for i in live:
            groups[i] = [c for _g in groups[i] for c in next(found)]
        live = [i for i in live if groups[i]]
        step += 1
    return [
        [Convoy(ts=bi, te=bi1, objs=g) for g in gs]
        for (bi, bi1), gs in zip(windows, groups)
    ]

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
"""
from __future__ import annotations

from repro.core.clustering import Memo, meps_clusters
from repro.core.convoy import Convoy
from repro.stores.base import TrajectoryStore


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


def recluster_at(
    store: TrajectoryStore,
    t: int,
    groups: list[frozenset[int]],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[frozenset[int]]:
    """reCluster(DB[t]|O(g)) for each candidate group g → surviving clusters.

    Each group is reclustered restricted to its own objects; results are
    the union of per-group (m,eps)-clusters. Input groups are disjoint,
    so outputs stay disjoint. A group already in ``memo`` is neither
    read nor clustered again; a new one is added to it.
    """
    memo = {} if memo is None else memo
    out: list[frozenset[int]] = []
    for g in groups:
        key = (t, g)
        if key not in memo:
            oids, xy = store.points(t, g)
            memo[key] = meps_clusters(oids, xy, m, eps)
        out.extend(memo[key])
    return out


def hwmt(
    store: TrajectoryStore,
    window: tuple[int, int],
    cc: list[frozenset[int]],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Mine the 1st-order spanning convoys of one hop-window.

    ``cc`` is the window's candidate cluster set (already size-filtered).
    Returns spanning convoys with lifespan set to the *bordering
    benchmark points* [b_i, b_{i+1}] (Algorithm 2 line 11). Empty as
    soon as any timestamp kills all candidates.
    """
    bi, bi1 = window
    groups = list(cc)
    for level in hwmt_order(bi, bi1):
        for t in level:
            groups = recluster_at(store, t, groups, m, eps, memo)
            if not groups:
                return []
    return [Convoy(ts=bi, te=bi1, objs=g) for g in groups]

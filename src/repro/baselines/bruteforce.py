"""Exponential exact reference miners for tiny datasets.

Gold standard for hypothesis/property tests: both the partially
connected (Definition 3/6) and the fully connected (Definition 4/7/8)
maximal convoy sets, computed straight from the definitions with no
pruning cleverness. Only feasible for ≲ 10 objects × ≲ 15 timestamps.
"""
from __future__ import annotations

from itertools import combinations

from repro.core.clustering import meps_clusters
from repro.core.convoy import Convoy, antichain
from repro.core.sweep import store_cluster_seq
from repro.stores.base import TrajectoryStore


def brute_force_convoys(
    store: TrajectoryStore, m: int, k: int, eps: float
) -> list[Convoy]:
    """All maximal partially-connected convoys of length ≥ k, by
    enumerating every interval and every per-timestamp cluster choice."""
    cpt = dict(store_cluster_seq(store, m, eps))
    ts, te = store.time_range()
    found: set[Convoy] = set()
    for s in range(ts, te - k + 2):
        # Intersections of one cluster choice per timestamp, grown
        # incrementally from s; each survivor of size >= m is a convoy.
        frontier: set[frozenset[int]] = {frozenset()}  # sentinel "all"
        for e in range(s, te + 1):
            nxt: set[frozenset[int]] = set()
            for base in frontier:
                for c in cpt[e]:
                    inter = c if not base else base & c
                    if len(inter) >= m:
                        nxt.add(inter)
            if not nxt:
                break
            if e - s + 1 >= k:
                for objs in nxt:
                    found.add(Convoy(ts=s, te=e, objs=objs))
            frontier = nxt
    return sorted(antichain(found))


def _is_fc(store: TrajectoryStore, v: Convoy, m: int, eps: float) -> bool:
    """(O,T) is FC iff O is one whole (m,eps)-cluster of DB[t]|O ∀t∈T."""
    for t in range(v.ts, v.te + 1):
        keys, xy = store.points([t], [v.objs])
        if len(keys) < len(v.objs):
            return False
        if v.objs not in meps_clusters(keys[:, 1], xy, m, eps)[0]:
            return False
    return True


def brute_force_fc_convoys(
    store: TrajectoryStore, m: int, k: int, eps: float
) -> list[Convoy]:
    """All maximal FC convoys of length ≥ k, by enumerating every object
    subset (size ≥ m) and every interval (length ≥ k)."""
    ts, te = store.time_range()
    all_objs = sorted(
        {int(o) for t in range(ts, te + 1) for o in store.snapshot([t])[0][:, 1]}
    )
    found: set[Convoy] = set()
    for r in range(m, len(all_objs) + 1):
        for objs in combinations(all_objs, r):
            fs = frozenset(objs)
            # Maximal runs of timestamps where fs is one whole cluster.
            run_start: int | None = None
            for t in range(ts, te + 2):
                ok = t <= te and _is_fc(store, Convoy(ts=t, te=t, objs=fs), m, eps)
                if ok and run_start is None:
                    run_start = t
                elif not ok and run_start is not None:
                    if t - run_start >= k:
                        found.add(Convoy(ts=run_start, te=t - 1, objs=fs))
                    run_start = None
    return sorted(antichain(found))

"""Exhaustive convoy sweep over a per-timestamp cluster sequence.

This is the corrected CMC-style miner (PCCD semantics, Yoon & Shahabi):
the DCM-merge (:func:`repro.core.merge.dcm_merge`) over one-timestamp
steps, each snapshot's clusters as convoys ``[t, t]``. Consecutive
snapshots are one timestamp apart, so the merge keeps *all* maximal
candidate convoys open, intersects each with every cluster of the next
snapshot, and closes a candidate when no cluster holds all its objects
or the next timestamp is missing. Unlike the original CMC, candidates
are not matched greedily — every (candidate × cluster) intersection of
size ≥ m is kept — which fixes CMC's known accuracy/recall bugs.

Used by: the VCoDA/PCCD baselines (over full snapshots), the DCM
baseline (per temporal partition), and k/2-hop's validation phase
(over a dataset restricted to one candidate's objects × lifespan, where
it plays the role of HWMT* — exact and, on the tiny restricted data,
just as cheap; see DESIGN.md §5).
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.clustering import Memo, meps_clusters
from repro.core.convoy import Convoy
from repro.core.hwmt import recluster
from repro.core.merge import dcm_merge
from repro.stores.base import TrajectoryStore


def sweep_maximal_convoys(
    cluster_seq: Iterable[tuple[int, list[frozenset[int]]]],
    m: int,
    k: int,
    *,
    edge_ts: tuple[int, int] | None = None,
) -> list[Convoy]:
    """Maximal (partially-connected) convoys of length ≥ k.

    ``cluster_seq`` yields (t, clusters) in strictly increasing t; a gap
    in t closes every open candidate (objects cannot be "together" at a
    missing timestamp).

    ``edge_ts=(t_lo, t_hi)`` is the DCM per-partition mode: convoys
    shorter than k are also emitted when they start at ``t_lo`` or end
    at ``t_hi`` — such fragments may grow across partition borders.
    """
    steps = [[Convoy(ts=t, te=t, objs=c) for c in clusters] for t, clusters in cluster_seq]
    lo, hi = edge_ts if edge_ts is not None else (None, None)
    # A convoy dominating a kept one is as long and touches the same
    # edge, so filtering the merge's antichain equals the antichain of
    # the filtered convoys.
    return [v for v in dcm_merge(steps, m) if v.length >= k or v.ts == lo or v.te == hi]


def store_cluster_seq(
    store: TrajectoryStore,
    m: int,
    eps: float,
    *,
    t_range: tuple[int, int] | None = None,
    objs: frozenset[int] | None = None,
    mode: str = "grid",
    memo: Memo | None = None,
) -> Iterator[tuple[int, list[frozenset[int]]]]:
    """Per-timestamp (m,eps)-clusters from a store, optionally restricted
    to a time range and/or an object set (DB[T]|O in paper notation).

    Unrestricted, each snapshot is read when the sequence reaches it.
    Restricted, the whole range is one :func:`recluster`: the timestamps
    already in ``memo`` are neither read nor clustered again, the rest
    are read in one store call and added to it.
    """
    ts, te = t_range if t_range is not None else store.time_range()
    if objs is None:
        for t in range(ts, te + 1):
            keys, xy = store.snapshot([t])
            yield t, meps_clusters(keys[:, 1], xy, m, eps, mode=mode)[0]
        return

    def cluster(*args):  # this module's meps_clusters, looked up when it runs
        return meps_clusters(*args, mode=mode)

    times = range(ts, te + 1)
    keys = [(t, objs) for t in times]
    yield from zip(times, recluster(store, keys, m, eps, memo, cluster))

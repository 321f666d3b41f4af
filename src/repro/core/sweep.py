"""Exhaustive convoy sweep over a per-timestamp cluster sequence.

This is the corrected CMC-style miner (PCCD semantics, Yoon & Shahabi):
scan timestamps in order keeping *all* maximal candidate convoys open,
intersect each with every cluster of the next snapshot, and emit a
candidate when it cannot be continued in its current shape, i.e. when no
cluster holds all its objects. Unlike the original CMC, candidates are
not matched greedily — every (candidate × cluster) intersection of size
≥ m is kept — which fixes CMC's known accuracy/recall bugs. The open set
is the :func:`antichain` of the new clusters and the intersections; all
of them end at the current timestamp, so only candidates whose every
continuation is a sub-convoy of another's are dropped.

Used by: the VCoDA/PCCD baselines (over full snapshots), the DCM
baseline (per temporal partition), and k/2-hop's validation phase
(over a dataset restricted to one candidate's objects × lifespan, where
it plays the role of HWMT* — exact and, on the tiny restricted data,
just as cheap; see DESIGN.md §5).
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.clustering import Memo, meps_clusters
from repro.core.convoy import Convoy, antichain
from repro.core.hwmt import recluster
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
    out: set[Convoy] = set()
    open_set: set[Convoy] = set()  # every member ends at the previous t

    def close(v: Convoy) -> None:
        if v.length >= k or (
            edge_ts is not None and (v.ts == edge_ts[0] or v.te == edge_ts[1])
        ):
            out.add(v)

    t_prev: int | None = None
    for t, clusters in cluster_seq:
        if t_prev is not None and t != t_prev + 1:  # gap: close everything
            for v in open_set:
                close(v)
            open_set = set()
        nxt = [Convoy(ts=t, te=t, objs=c) for c in clusters]
        for v in open_set:
            for c in clusters:
                if len(inter := v.objs & c) >= m:
                    nxt.append(Convoy(ts=v.ts, te=t, objs=inter))
            # Close candidates that did not survive in their current shape.
            if not any(v.objs <= c for c in clusters):
                close(v)
        open_set = antichain(nxt)
        t_prev = t
    for v in open_set:
        close(v)
    return sorted(antichain(out))


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

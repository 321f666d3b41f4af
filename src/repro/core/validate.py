"""Fully-connected convoy validation (paper §4.6, Algorithm 4).

An FC convoy (O, T) is exactly a convoy of the dataset *restricted* to
its own objects and lifespan. For each extended candidate we therefore
re-mine ``DB[T(v)]|O(v)``: if the candidate comes back whole it is FC;
otherwise the (strictly smaller) convoys found are re-validated, until
candidates either prove FC or fall below m objects / k timestamps.

The restricted miner — the paper's HWMT* — is implemented as the exact
exhaustive sweep over the restriction, i.e. the DCM-merge over its
one-timestamp steps (see DESIGN.md §5): on the tiny
restricted datasets both formulations are exact, and the paper measures
validation time as negligible (Fig. 8i).

Most ``DB[t]|O(v)`` that validation needs were already reclustered by
HWMT or extension in the same query. Given the query's memo (see
:func:`repro.core.k2hop.run_phases`), validation reads and clusters only
the restrictions not in it.

The returned set is the maximal antichain of FC convoys (the FC Convoy
Mining Problem, Definition 8).
"""
from __future__ import annotations

from repro.core.clustering import Memo
from repro.core.convoy import Convoy, antichain
from repro.core.sweep import store_cluster_seq, sweep_maximal_convoys
from repro.stores.base import TrajectoryStore


def restricted_mine(
    store: TrajectoryStore,
    v: Convoy,
    m: int,
    k: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """HWMT*: all maximal convoys of length ≥ k in DB[T(v)]|O(v)."""
    seq = store_cluster_seq(
        store, m, eps, t_range=(v.ts, v.te), objs=v.objs, memo=memo
    )
    return sweep_maximal_convoys(seq, m, k)


def validate(
    store: TrajectoryStore,
    candidates: list[Convoy],
    m: int,
    k: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Algorithm 4: reduce extended candidates to maximal FC convoys.

    ``memo`` holds the restricted reclusterings HWMT and extension made
    earlier in the query; validation reads it first and adds to it.
    """
    fc: set[Convoy] = set()
    todo: set[Convoy] = {v for v in candidates if len(v.objs) >= m and v.length >= k}
    seen: set[Convoy] = set(todo)
    while todo:
        v = todo.pop()
        found = restricted_mine(store, v, m, k, eps, memo)
        if found == [v]:
            fc.add(v)
            continue
        for w in found:
            if w == v:  # v re-found alongside smaller convoys: FC too
                fc.add(v)
            elif len(w.objs) >= m and w.length >= k and w not in seen:
                seen.add(w)
                todo.add(w)
    return sorted(antichain(fc))

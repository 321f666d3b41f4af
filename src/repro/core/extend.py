"""Extension of maximal spanning convoys to their true starts and ends
(paper §4.5, Algorithm 3 ``extendRight`` + its symmetric left pass).

Each maximal spanning convoy is re-clustered timestamp-by-timestamp past
its benchmark-point boundaries, restricted to its own objects. A
reclustering can continue the convoy whole, split it into smaller
branches (each explored independently, inheriting the original start),
or kill it. A convoy that does not survive *in its current shape* is
recorded via the antichain ``update``; the :func:`antichain` of the
grown branches carries on.

After the right pass, the left pass extends the right-closed convoys
toward ``Ts``. Only then is the minimum-length constraint k applied:
a convoy that fails k after the right pass may still reach k by growing
left, so the filter must wait (paper §4.5).

Convoys extend independently, so a pass advances all of them in
lockstep: each round takes every convoy's frontier one timestamp
further, and the round's restrictions are read in one batched store call
(:func:`~repro.core.hwmt.recluster`). A convoy still reads only the
timestamps it would read alone, and stops where it would alone.
"""
from __future__ import annotations

from repro.core.clustering import Memo
from repro.core.convoy import Convoy, antichain, update
from repro.core.hwmt import recluster
from repro.stores.base import TrajectoryStore


def _extend(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    direction: int,
    t_stop: int,
    memo: Memo | None,
) -> list[Convoy]:
    """Extend every convoy right (direction=+1) or left (−1) until t_stop.

    Each convoy keeps its own frontier of branches and the timestamp
    they reach next. Every branch of a frontier ends (right) or starts
    (left) at the last timestamp reclustered, so :func:`antichain` keeps
    exactly the branches whose extensions can still be maximal.
    """
    result: set[Convoy] = set()
    fronts = [((v.te if direction > 0 else v.ts) + direction, {v}) for v in convoys]
    while fronts:
        live = []
        for t, prev in fronts:
            if t <= t_stop if direction > 0 else t >= t_stop:
                live.append((t, prev))
            else:  # ran off the dataset edge
                for v in prev:
                    update(result, v)
        keys = [(t, v.objs) for t, prev in live for v in prev]
        found = iter(recluster(store, keys, m, eps, memo))
        fronts = []
        for t, prev in live:
            grown: list[Convoy] = []
            for v in prev:
                clusters = next(found)
                if v.objs not in clusters:  # did not survive in its current shape
                    update(result, v)
                grown += [
                    Convoy(ts=v.ts, te=t, objs=c)
                    if direction > 0
                    else Convoy(ts=t, te=v.te, objs=c)
                    for c in clusters
                ]
            if grown:
                fronts.append((t + direction, antichain(grown)))
    return sorted(result)


def extend_right(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Algorithm 3: extend every convoy to its right-closed forms."""
    _ts, te = store.time_range()
    return _extend(store, convoys, m, eps, +1, te, memo)


def extend_left(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Symmetric left pass, from ts(v)−1 down to Ts."""
    ts, _te = store.time_range()
    return _extend(store, convoys, m, eps, -1, ts, memo)


def extend(
    store: TrajectoryStore, convoys: list[Convoy], m: int, k: int, eps: float
) -> list[Convoy]:
    """Right pass, left pass, then the minimum-length-k filter."""
    out = extend_left(store, extend_right(store, convoys, m, eps), m, eps)
    return [v for v in out if v.length >= k]

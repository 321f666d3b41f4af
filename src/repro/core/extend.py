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
"""
from __future__ import annotations

from repro.core.clustering import Memo
from repro.core.convoy import Convoy, antichain, update
from repro.core.hwmt import recluster_at
from repro.stores.base import TrajectoryStore


def _extend_one(
    store: TrajectoryStore,
    v0: Convoy,
    m: int,
    eps: float,
    direction: int,
    t_stop: int,
    result: set[Convoy],
    memo: Memo | None,
) -> None:
    """Extend one convoy right (direction=+1) or left (−1) until t_stop.

    Every branch of the frontier ends (right) or starts (left) at the
    last timestamp reclustered, so :func:`antichain` keeps exactly the
    branches whose extensions can still be maximal.
    """
    prev = {v0}
    t = (v0.te if direction > 0 else v0.ts) + direction
    while prev and (t <= t_stop if direction > 0 else t >= t_stop):
        grown: list[Convoy] = []
        for v in prev:
            clusters = recluster_at(store, t, [v.objs], m, eps, memo)
            if v.objs not in clusters:  # did not survive in its current shape
                update(result, v)
            grown += [
                Convoy(ts=v.ts, te=t, objs=c)
                if direction > 0
                else Convoy(ts=t, te=v.te, objs=c)
                for c in clusters
            ]
        prev = antichain(grown)
        t += direction
    for v in prev:  # ran off the dataset edge
        update(result, v)


def extend_right(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Algorithm 3: extend every convoy to its right-closed forms."""
    _ts, te = store.time_range()
    result: set[Convoy] = set()
    for v in convoys:
        _extend_one(store, v, m, eps, +1, te, result, memo)
    return sorted(result)


def extend_left(
    store: TrajectoryStore,
    convoys: list[Convoy],
    m: int,
    eps: float,
    memo: Memo | None = None,
) -> list[Convoy]:
    """Symmetric left pass, from ts(v)−1 down to Ts."""
    ts, _te = store.time_range()
    result: set[Convoy] = set()
    for v in convoys:
        _extend_one(store, v, m, eps, -1, ts, result, memo)
    return sorted(result)


def extend(
    store: TrajectoryStore, convoys: list[Convoy], m: int, k: int, eps: float
) -> list[Convoy]:
    """Right pass, left pass, then the minimum-length-k filter."""
    out = extend_left(store, extend_right(store, convoys, m, eps), m, eps)
    return [v for v in out if v.length >= k]

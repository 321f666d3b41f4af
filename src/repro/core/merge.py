"""DCM-merge: the one convoy-chaining rule (paper §4.4, Table 3; merge
operator from the DCM paper [16]).

Steps are processed left to right. An *open* convoy ``v`` merges with a
next-step convoy ``w`` when ``v.te <= w.ts <= v.te + 1``: k/2-hop's
hop-windows share a benchmark point and DCM's partitions their boundary
timestamp (``w.ts == v.te``), while the sweep's one-timestamp steps
(``core/sweep.py``) are consecutive snapshots (``w.ts == v.te + 1``).
Merging intersects object sets (keeping results with ≥ m objects) and
concatenates lifespans. ``v`` closes when no such ``w`` contains its
full object set — it cannot be extended in its current shape (the
white-background rows of Table 3). The result is the maximal antichain
of closed + still-open convoys.

The open set is the :func:`antichain` of each step's convoys. In the
sweep and in k/2-hop they all end together, so only convoys whose every
future merge is a sub-convoy of another's are dropped. DCM fragments may
end or start one timestamp off their partition's boundary, so the
``v.te + 1`` case can also merge across a boundary without its shared
timestamp; each such merge is a sub-convoy of one made through that
timestamp, so the final antichain is unchanged.
"""
from __future__ import annotations

from repro.core.convoy import Convoy, antichain


def dcm_merge(per_window: list[list[Convoy]], m: int) -> list[Convoy]:
    """Merge the convoys of consecutive steps into maximal convoys.

    ``per_window`` holds one convoy list per step: the 1st-order spanning
    convoys of a hop-window, a DCM partition's fragments, or one
    snapshot's clusters as one-timestamp convoys. Every convoy holds ≥ m
    objects, so one that survives whole in a ``w`` also merges with it.
    """
    closed: set[Convoy] = set()
    open_set: set[Convoy] = set()
    for step in per_window:
        nxt = list(step)
        for v in open_set:
            # Convoys only meet when w starts where v ends or right after.
            meets = [w for w in step if v.te <= w.ts <= v.te + 1]
            for w in meets:
                if len(inter := v.objs & w.objs) >= m:
                    nxt.append(Convoy(ts=v.ts, te=w.te, objs=inter))
            if not any(v.objs <= w.objs for w in meets):
                closed.add(v)
        open_set = antichain(nxt)
    return sorted(antichain(closed | open_set))

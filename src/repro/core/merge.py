"""DCM-merge: chaining 1st-order spanning convoys into maximal spanning
convoys (paper §4.4, Table 3; merge operator from the DCM paper [16]).

Windows are processed left to right. An *open* convoy ends at the
current boundary benchmark point and may still merge with the next
window's spanning convoys; merging intersects object sets (keeping
results with ≥ m objects) and concatenates lifespans. An open convoy
closes when no next-window convoy contains its full object set — it
cannot be extended in its current shape (the white-background rows of
Table 3). The final result is the maximal antichain of closed + still-
open convoys.

The open set is the :func:`antichain` of each step's convoys. In
k/2-hop they all end at the same benchmark point, so only convoys whose
every future merge is a sub-convoy of another's are dropped. The DCM
baseline feeds per-partition fragments that may end before their
partition's boundary; those can never merge again (merging needs
``v.te == w.ts``), so dropping them early loses nothing the final
antichain keeps.
"""
from __future__ import annotations

from repro.core.convoy import Convoy, antichain


def dcm_merge(per_window: list[list[Convoy]], m: int) -> list[Convoy]:
    """Merge per-window spanning convoys into maximal spanning convoys.

    ``per_window`` holds the 1st-order spanning convoy lists of
    *consecutive* hop-windows, each convoy spanning [b_i, b_{i+1}].
    """
    closed: set[Convoy] = set()
    open_set: set[Convoy] = set()
    for spanning in per_window:
        nxt = list(spanning)
        for v in open_set:
            # Convoys only meet when v ends where w starts.
            for w in spanning:
                if v.te == w.ts and len(inter := v.objs & w.objs) >= m:
                    nxt.append(Convoy(ts=v.ts, te=w.te, objs=inter))
            if not any(v.te == w.ts and v.objs <= w.objs for w in spanning):
                closed.add(v)
        open_set = antichain(nxt)
    return sorted(antichain(closed | open_set))

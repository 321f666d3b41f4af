"""Helpers for constructing datasets with exact, known cluster structure.

``scene_from_groups`` lays out, per timestamp, the groups of objects
that must form (m,eps)-clusters (members packed on a radius-0.5 circle,
pairwise ≤ 1 apart) and scatters every other object far from everything
(≥ 50 apart). With ``eps=2`` the per-snapshot DBSCAN output is then
exactly the requested groups (of size ≥ m) — letting tests encode the
paper's worked examples (Figures 2/5/6, Tables 2/3) literally.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: the eps every testkit scene is designed for
EPS = 2.0


def scene_from_groups(
    groups_per_t: dict[int, list[list[int]]],
    all_oids: list[int],
    *,
    timestamps: list[int] | None = None,
) -> pd.DataFrame:
    """Build a (t, oid, x, y) frame realizing the given co-location plan.

    ``groups_per_t[t]`` lists the object groups that are together at
    ``t``; objects may appear in at most one group per timestamp. Any
    object of ``all_oids`` not grouped at ``t`` is placed far from all
    others. ``timestamps`` defaults to the keys of ``groups_per_t``.
    """
    rows: list[tuple[int, int, float, float]] = []
    for t in timestamps if timestamps is not None else sorted(groups_per_t):
        placed: set[int] = set()
        for gi, group in enumerate(groups_per_t.get(t, [])):
            n = len(group)
            cx, cy = 500.0 * (gi + 1), 100.0
            for mi, oid in enumerate(group):
                if oid in placed:
                    raise ValueError(f"oid {oid} in two groups at t={t}")
                placed.add(oid)
                ang = 2 * np.pi * mi / max(n, 1)
                rows.append((t, oid, cx + 0.5 * np.cos(ang), cy + 0.5 * np.sin(ang)))
        for oid in all_oids:
            if oid not in placed:
                rows.append((t, oid, 20_000.0 + 50.0 * oid, 9_000.0 + 37.0 * t))
    return pd.DataFrame(rows, columns=["t", "oid", "x", "y"])


def letters(*names: str) -> list[int]:
    """Map single letters to stable object ids: a→0 … z→25."""
    return [ord(c) - ord("a") for c in names]


def lset(word: str) -> frozenset[int]:
    """'abc' → frozenset({0,1,2}) — compact group literals in tests."""
    return frozenset(letters(*word))


def border_scene() -> pd.DataFrame:
    """Two (4, 1)-clusters sharing one border point, at timestamps 0–5.

    On the x axis, objects 1–3 sit at -2, 4 at -1, 9 at 0, 5 at 1 and 6–8
    at 2. With ``m = 4`` and ``eps = 1``, objects 1–8 are core points of
    {1, 2, 3, 4} and {5, 6, 7, 8}, and 9 (three points within eps,
    itself included) is a border point of both. DBSCAN gives 9 to the
    cluster whose lowest-index core point comes first, so in ``oid`` row
    order 9 joins {1, 2, 3, 4}. Rows are in (t, oid) order.
    """
    x = {1: -2.0, 2: -2.0, 3: -2.0, 4: -1.0, 9: 0.0, 5: 1.0, 6: 2.0, 7: 2.0, 8: 2.0}
    rows = [(t, oid, x[oid], 0.0) for t in range(6) for oid in sorted(x)]
    return pd.DataFrame(rows, columns=["t", "oid", "x", "y"])

"""TrajectoryStore protocol: the access interface k/2-hop mines against.

Movement data is the paper's 4-column relation ``<oid, x, y, t>`` with
integer timestamps and integer object ids. A snapshot is all points at
one timestamp.

The in-memory and LSM-tree stores keep the relation as *runs*: record
arrays sorted by the paper's §5.2 key ``(t, oid)``. A read is then one
binary-searched slice per timestamp (:func:`read`), and runs written at
different times combine by one newest-wins merge (:func:`merge`).
"""
from __future__ import annotations

from itertools import chain
from typing import Collection, Protocol, Sequence, runtime_checkable

import numpy as np
import pandas as pd

#: canonical column order for trajectory frames across the repo
COLUMNS = ["t", "oid", "x", "y"]

#: one record of a run; its 32 bytes are the LSM-tree's SSTable layout
#: ``t:int64, oid:int64, x:float64, y:float64``
RECORD = np.dtype([("t", "<i8"), ("oid", "<i8"), ("xy", "<f8", (2,))])


@runtime_checkable
class TrajectoryStore(Protocol):
    """Read interface over a trajectory dataset.

    Both reads are batched: one call serves many timestamps, or many
    ``(t, objects)`` restrictions, and returns ``(keys, xy)`` — ``keys``
    int64 ``[n, 2]`` of ``(t, oid)`` and ``xy`` float64 ``[n, 2]`` — with
    every stored point at most once, in ``(t, oid)`` order.
    """

    def time_range(self) -> tuple[int, int]:
        """(Ts, Te): first and last timestamp present in the dataset."""
        ...

    def snapshot(self, t: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """All points at the timestamps ``t``."""
        ...

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The points of the objects ``oids[i]`` at time ``t[i]``, for every
        ``i``; a point two restrictions share comes back once, and absent
        ones are omitted."""
        ...

    def total_points(self) -> int:
        """Number of (t, oid) points stored — Table 5 denominator."""
        ...


def reject(problems: dict[str, str]) -> None:
    """Raise the one malformed-input error if ``problems`` (a problem →
    the rows that have it) names any."""
    if problems:
        found = "; ".join(f"{what} at {rows}" for what, rows in problems.items())
        raise ValueError(f"malformed trajectory frame: {found}")


def validate_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Normalize a trajectory frame to canonical columns/dtypes, sorted
    by (t, oid).

    Rejects non-integral ``t``, non-finite ``x``/``y`` and duplicate
    (t, oid) pairs — a convoy dataset is a function from (t, oid) to a
    location — counting the offending rows and naming the first ten by
    their index labels.
    """
    df = df[COLUMNS].sort_values(["t", "oid"])
    t, oid = df["t"].to_numpy(), df["oid"].to_numpy()
    # Sorted, every duplicate key sits next to a twin: twin[i] says whether
    # keys i - 1 and i are equal.
    twin = np.zeros(len(df) + 1, dtype=bool)
    twin[1:-1] = (t[1:] == t[:-1]) & (oid[1:] == oid[:-1])
    bad = {
        "non-integral t": t % 1 != 0,
        "non-finite x/y": ~np.isfinite(df[["x", "y"]].to_numpy(np.float64)).all(axis=1),
        "duplicate (t, oid)": twin[:-1] | twin[1:],
    }
    reject({
        what: f"{rows.sum()} rows {df.index[rows][:10].tolist()}"
        for what, rows in bad.items()
        if rows.any()
    })
    df = df.astype({"t": np.int64, "oid": np.int64, "x": np.float64, "y": np.float64})
    return df.reset_index(drop=True)


def to_run(df: pd.DataFrame) -> np.ndarray:
    """A :func:`validate_frame`-normalized frame (sorted, unique keys) as a run."""
    run = np.empty(len(df), dtype=RECORD)
    run["t"], run["oid"], run["xy"] = df["t"], df["oid"], df[["x", "y"]]
    return run


def read(
    run: np.ndarray, t: Sequence[int], oids: Sequence[Collection[int]] | None = None
) -> np.ndarray:
    """The records of ``run`` at the timestamps ``t`` or, given ``oids``,
    of the objects ``oids[i]`` at ``t[i]``: each record once, in (t, oid)
    order, from one binary-searched slice per distinct timestamp."""
    run = np.asarray(run)  # a plain view: memmap subclasses slow every later op
    no_rows = [np.empty(0, dtype=np.int64)]
    if oids is None:
        ts = np.unique(np.asarray(t, dtype=np.int64))
        lo, hi = np.searchsorted(run["t"], ts, "left"), np.searchsorted(run["t"], ts, "right")
        return run[np.concatenate(no_rows + [np.arange(a, b) for a, b in zip(lo, hi)])]
    # The (t[i], o) keys for every o in oids[i], sorted like the run: a
    # timestamp's keys are adjacent and in oid order.
    n = [len(o) for o in oids]
    kt = np.repeat(np.asarray(t, dtype=np.int64), n)
    ko = np.fromiter(chain.from_iterable(oids), dtype=np.int64, count=sum(n))
    order = np.lexsort((ko, kt))
    kt, ko = kt[order], ko[order]
    ts, first = np.unique(kt, return_index=True)
    lo, hi = np.searchsorted(run["t"], ts, "left"), np.searchsorted(run["t"], ts, "right")
    # Each key's slot in its timestamp's slice; the key is stored if the
    # slot holds it.
    oid = run["oid"]
    pos = np.concatenate(no_rows + [
        a + np.searchsorted(oid[a:b], want)
        for a, b, want in zip(lo, hi, np.split(ko, first[1:]))
    ])
    hit = pos < np.repeat(hi, np.diff(np.append(first, len(kt))))
    hit[hit] = oid[pos[hit]] == ko[hit]
    return run[np.unique(pos[hit])]  # a key asked twice is one record


def columns(run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A run as the ``(keys, xy)`` pair the stores return."""
    return np.column_stack([run["t"], run["oid"]]), run["xy"]


def merge(runs: list[np.ndarray]) -> np.ndarray:
    """One run from ``runs`` (oldest first): a stable sort by (t, oid)
    that keeps the newest record of each key."""
    runs = [r for r in runs if len(r)]
    if len(runs) <= 1:  # nothing to merge: a run is sorted, one record per key
        return runs[0] if runs else np.empty(0, dtype=RECORD)
    rec = np.concatenate(runs)
    rec = rec[np.lexsort((rec["oid"], rec["t"]))]
    # After a stable sort the newest record of a key is its last one.
    last = np.ones(len(rec), dtype=bool)
    last[:-1] = (rec["t"][1:] != rec["t"][:-1]) | (rec["oid"][1:] != rec["oid"][:-1])
    return rec[last]

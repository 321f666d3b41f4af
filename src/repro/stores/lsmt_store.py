"""From-scratch log-structured merge-tree store (the paper's ``k2-LSMT``).

The paper (Section 5.2) keys an LSM-tree by the composite ``(t, oid)``
with ``(x, y)`` as the value: benchmark snapshots become a single range
scan ``[(t, 0), (t, max_oid)]`` (keys for one timestamp are co-located
in sorted runs), and HWMT issues point/batch gets by ``(t, oid)``.

This module implements that structure over the local filesystem:

* **Memtable** — an in-memory dict of fresh inserts; flushed to a sorted
  run when it exceeds ``memtable_limit`` entries.
* **SSTable run** — an immutable file of fixed-width records sorted by
  key; read back via ``np.memmap`` so reads actually touch the files.
  Record layout: ``t:int64, oid:int64, x:float64, y:float64``.
* **Size-tiered compaction** — when more than ``max_runs`` runs exist,
  all runs are k-way merged (newest wins on duplicate keys) into one.

Reads consult the memtable first, then runs from newest to oldest;
range scans merge all sources. Keys are (t, oid) tuples of non-negative
ints, so numpy structured-array ordering matches key ordering.
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np
import pandas as pd

from repro.stores.base import validate_frame

_DTYPE = np.dtype([("t", "<i8"), ("oid", "<i8"), ("x", "<f8"), ("y", "<f8")])
_EMPTY = np.empty(0, dtype=_DTYPE)


class LSMTStore:
    """LSM-tree keyed by (t, oid) over the local filesystem."""

    def __init__(
        self,
        df: pd.DataFrame | None = None,
        *,
        directory: str | None = None,
        memtable_limit: int = 64_000,
        max_runs: int = 6,
    ):
        self._tmp = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="k2lsmt-")
            directory = self._tmp.name
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._memtable: dict[tuple[int, int], tuple[float, float]] = {}
        self._memtable_limit = int(memtable_limit)
        self._max_runs = int(max_runs)
        self._runs: list[Path] = []  # oldest → newest
        self._next_run = 0
        if df is not None:
            self.put_frame(df)

    # ------------------------------------------------------------- write
    def put(self, t: int, oid: int, x: float, y: float) -> None:
        """Insert/overwrite one point; may trigger a flush."""
        self._memtable[(int(t), int(oid))] = (float(x), float(y))
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def put_frame(self, df: pd.DataFrame) -> None:
        """Bulk-insert a trajectory frame through the normal write path."""
        df = validate_frame(df)
        for t, oid, x, y in df.itertuples(index=False):
            self.put(t, oid, x, y)

    def flush(self) -> None:
        """Write the memtable as a new sorted run."""
        if not self._memtable:
            return
        rec = np.empty(len(self._memtable), dtype=_DTYPE)
        for i, ((t, oid), (x, y)) in enumerate(self._memtable.items()):
            rec[i] = (t, oid, x, y)
        rec.sort(order=("t", "oid"))
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        rec.tofile(path)
        self._runs.append(path)
        self._memtable.clear()
        if len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self) -> None:
        """Size-tiered compaction: merge all runs, newest wins per key."""
        merged: dict[tuple[int, int], tuple[float, float]] = {}
        for path in self._runs:  # oldest first → later (newer) overwrite
            for r in np.fromfile(path, dtype=_DTYPE):
                merged[(int(r["t"]), int(r["oid"]))] = (float(r["x"]), float(r["y"]))
        rec = np.empty(len(merged), dtype=_DTYPE)
        for i, ((t, oid), (x, y)) in enumerate(merged.items()):
            rec[i] = (t, oid, x, y)
        rec.sort(order=("t", "oid"))
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        rec.tofile(path)
        for old in self._runs:
            old.unlink()
        self._runs = [path]

    # -------------------------------------------------------------- read
    def _run_mmap(self, path: Path) -> np.ndarray:
        return np.memmap(path, dtype=_DTYPE, mode="r")

    def _range_from_run(self, rec: np.ndarray, t: int) -> np.ndarray:
        """Records for timestamp ``t`` — one binary-searched range scan."""
        lo = np.searchsorted(rec["t"], t, side="left")
        hi = np.searchsorted(rec["t"], t, side="right")
        return np.asarray(rec[lo:hi])

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        t = int(t)
        # Newer sources override older on duplicate keys.
        out: dict[int, tuple[float, float]] = {}
        for path in self._runs:
            for r in self._range_from_run(self._run_mmap(path), t):
                out[int(r["oid"])] = (float(r["x"]), float(r["y"]))
        for (kt, oid), (x, y) in self._memtable.items():
            if kt == t:
                out[oid] = (x, y)
        if not out:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        oids = np.array(sorted(out), dtype=np.int64)
        xy = np.array([out[int(o)] for o in oids], dtype=np.float64)
        return oids, xy

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        t = int(t)
        want = sorted({int(o) for o in oids})
        out: dict[int, tuple[float, float]] = {}
        for path in self._runs:
            rec = self._run_mmap(path)
            # Narrow to the timestamp's key range, then one binary search
            # per requested oid within it (oids are sorted in-range).
            seg = self._range_from_run(rec, t)
            if not len(seg):
                continue
            seg_oids = seg["oid"]
            pos = np.searchsorted(seg_oids, np.asarray(want, dtype=np.int64))
            for oid, p in zip(want, pos):
                if p < len(seg_oids) and seg_oids[p] == oid:
                    out[oid] = (float(seg[p]["x"]), float(seg[p]["y"]))
        for oid in want:
            if (t, oid) in self._memtable:
                out[oid] = self._memtable[(t, oid)]
        if not out:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        hit = np.array(sorted(out), dtype=np.int64)
        xy = np.array([out[int(o)] for o in hit], dtype=np.float64)
        return hit, xy

    # ------------------------------------------------------------- stats
    def time_range(self) -> tuple[int, int]:
        ts: int | None = None
        te: int | None = None
        for path in self._runs:
            rec = self._run_mmap(path)
            if len(rec):
                ts = int(rec["t"][0]) if ts is None else min(ts, int(rec["t"][0]))
                te = int(rec["t"][-1]) if te is None else max(te, int(rec["t"][-1]))
        for (t, _oid) in self._memtable:
            ts = t if ts is None else min(ts, t)
            te = t if te is None else max(te, t)
        return (0, -1) if ts is None else (ts, te)

    def total_points(self) -> int:
        keys = {(int(r["t"]), int(r["oid"])) for p in self._runs for r in np.fromfile(p, dtype=_DTYPE)}
        keys.update(self._memtable)
        return len(keys)

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    def close(self) -> None:
        """Delete the store's own temporary directory; a directory the
        caller passed in is left as it is."""
        if self._tmp is not None:
            self._tmp.cleanup()

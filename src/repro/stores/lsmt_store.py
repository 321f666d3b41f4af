"""From-scratch log-structured merge-tree store (the paper's ``k2-LSMT``).

The paper (Section 5.2) keys an LSM-tree by the composite ``(t, oid)``
with ``(x, y)`` as the value: benchmark snapshots become a single range
scan ``[(t, 0), (t, max_oid)]`` (keys for one timestamp are co-located
in sorted runs), and HWMT issues point/batch gets by ``(t, oid)``.

This module implements that structure over the local filesystem:

* **Memtable** — an in-memory dict of fresh ``put`` writes; flushed to a
  sorted run when it reaches ``memtable_limit`` entries.
* **SSTable** — an immutable file holding one run of
  :mod:`repro.stores.base` (32-byte ``t, oid, x, y`` records sorted by
  key), read back via ``np.memmap`` so reads actually touch the files.
  ``put_frame`` writes memtable-sized runs straight from the sorted frame.
* **Size-tiered compaction** — when more than ``max_runs`` runs exist,
  all are merged into one.

Compaction, reads, ``time_range`` and the point count are each one
newest-wins :func:`~repro.stores.base.merge` over the runs (oldest
first) and the memtable: of every run's records at the requested
timestamps or keys, of its end records, or of everything (once per
store state).
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Collection, Sequence

import numpy as np
import pandas as pd

from repro.stores.base import RECORD, columns, merge, read, to_run, validate_frame


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
        self._runs: list[np.memmap] = []  # oldest → newest
        self._next_run = 0
        self._total: int | None = None  # total_points() until the next write
        if df is not None:
            try:
                self.put_frame(df)
            except BaseException:
                self.close()  # a rejected frame leaves no directory behind
                raise

    # ------------------------------------------------------------- write
    def put(self, t: int, oid: int, x: float, y: float) -> None:
        """Insert/overwrite one point; may trigger a flush."""
        self._memtable[(int(t), int(oid))] = (float(x), float(y))
        self._total = None
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def put_frame(self, df: pd.DataFrame) -> None:
        """Bulk-insert a trajectory frame as memtable-sized sorted runs."""
        run = to_run(validate_frame(df))
        self._total = None
        self.flush()  # earlier puts are older than the frame
        for lo in range(0, len(run), self._memtable_limit):
            self._write(run[lo : lo + self._memtable_limit])

    def flush(self) -> None:
        """Write the memtable as a new sorted run."""
        if self._memtable:
            run = self._memtable_run()
            self._memtable.clear()
            self._write(run)

    def _memtable_run(self) -> np.ndarray:
        """The memtable as a run (its keys are unique: it is a dict)."""
        run = np.empty(len(self._memtable), dtype=RECORD)
        run["t"], run["oid"] = np.reshape(list(self._memtable), (-1, 2)).T
        run["xy"] = np.reshape(list(self._memtable.values()), (-1, 2))
        return run[np.lexsort((run["oid"], run["t"]))]

    def _write(self, run: np.ndarray) -> None:
        """Add ``run`` as the newest SSTable, first merging it with every
        older run if there are already ``max_runs`` (size-tiered
        compaction)."""
        if len(self._runs) >= self._max_runs:
            run, old = merge(self._runs + [run]), self._runs
            self._runs = []
            for r in old:
                Path(r.filename).unlink()
        path = self._dir / f"run-{self._next_run:06d}.sst"
        self._next_run += 1
        run.tofile(path)
        self._runs.append(np.memmap(path, dtype=RECORD, mode="r"))

    # -------------------------------------------------------------- read
    def _read(
        self, t: Sequence[int], oids: Sequence[Collection[int]] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        return columns(merge([read(r, t, oids) for r in self._runs + [self._memtable_run()]]))

    def snapshot(self, t: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return self._read(t)

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._read(t, oids)

    # ------------------------------------------------------------- stats
    def time_range(self) -> tuple[int, int]:
        t = merge([r[[0, -1]] for r in self._runs] + [self._memtable_run()])["t"]
        return (int(t[0]), int(t[-1])) if len(t) else (0, -1)

    def total_points(self) -> int:
        if self._total is None:
            self._total = len(merge(self._runs + [self._memtable_run()]))
        return self._total

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    def close(self) -> None:
        """Delete the store's own temporary directory; a directory the
        caller passed in is left as it is."""
        self._runs = []
        if self._tmp is not None:
            self._tmp.cleanup()

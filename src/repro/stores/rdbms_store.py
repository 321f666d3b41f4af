"""Relational store backed by DuckDB (the paper's ``k2-RDBMS``).

The paper stores ``(timestamp, oid, x, y)`` in a relational table with a
multi-column clustered index on (timestamp, oid); benchmark snapshots
are fetched with a ``WHERE t = ?`` scan and HWMT data with
``WHERE t = ? AND oid IN (...)`` point queries. DuckDB plays the RDBMS
role here — a real SQL engine with an ART index on (t, oid). Data is
physically ordered by (t, oid) at load time to model the clustered
index.
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable

import duckdb
import numpy as np
import pandas as pd

from repro.stores.base import validate_frame


class RDBMSStore:
    """Trajectory store over an (optionally on-disk) DuckDB database."""

    def __init__(self, df: pd.DataFrame, *, path: str | None = None):
        df = validate_frame(df)  # sorted by (t, oid) → clustered layout
        self._tmp = None
        if path is None:
            # Keep the database on disk so the RDBMS variant actually
            # pays I/O, as in the paper; the tempdir lives until close()
            # or until the store object is collected.
            self._tmp = tempfile.TemporaryDirectory(prefix="k2rdbms-")
            path = str(Path(self._tmp.name) / "traj.duckdb")
        self._con = duckdb.connect(path)
        self._con.register("df_in", df)
        self._con.execute(
            "CREATE TABLE points AS SELECT t, oid, x, y FROM df_in ORDER BY t, oid"
        )
        self._con.execute("CREATE INDEX idx_t_oid ON points (t, oid)")
        self._con.unregister("df_in")
        self._n = len(df)
        if self._n:
            ts, te = self._con.execute("SELECT min(t), max(t) FROM points").fetchone()
            self._range = (int(ts), int(te))
        else:
            self._range = (0, -1)

    def time_range(self) -> tuple[int, int]:
        return self._range

    def _fetch(self, sql: str, params: list) -> tuple[np.ndarray, np.ndarray]:
        out = self._con.execute(sql, params).fetchnumpy()
        oids = out["oid"].astype(np.int64)
        xy = np.column_stack([out["x"], out["y"]]).astype(np.float64)
        if xy.size == 0:
            xy = np.empty((0, 2), dtype=np.float64)
        return oids, xy

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return self._fetch(
            "SELECT oid, x, y FROM points WHERE t = ? ORDER BY oid", [int(t)]
        )

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        want = [int(o) for o in oids]
        if not want:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        ph = ",".join("?" * len(want))
        return self._fetch(
            f"SELECT oid, x, y FROM points WHERE t = ? AND oid IN ({ph}) ORDER BY oid",
            [int(t), *want],
        )

    def total_points(self) -> int:
        return self._n

    def close(self) -> None:
        """Close the connection and delete the store's own temporary
        directory; a database path the caller passed in is kept."""
        self._con.close()
        if self._tmp is not None:
            self._tmp.cleanup()

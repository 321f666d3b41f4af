"""Relational store backed by DuckDB (the paper's ``k2-RDBMS``).

The paper stores ``(timestamp, oid, x, y)`` in a relational table with a
multi-column clustered index on (timestamp, oid); benchmark snapshots
are fetched with a ``WHERE t = ?`` scan and HWMT data with
``WHERE t = ? AND oid IN (...)`` point queries. DuckDB plays the RDBMS
role here — a real SQL engine. Rows are loaded in (t, oid) order to
model the clustered index, and an ART index on (t, oid) is built as the
paper's schema has one. DuckDB 1.0.0 does not use that index for either
read: ``EXPLAIN`` plans both as a ``SEQ_SCAN`` with the filters pushed
into the scan, and never as an ``INDEX_SCAN``.
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
        # The build above used every core. The reads below each return a
        # few rows, where starting DuckDB's other threads costs more than
        # they save.
        self._con.execute("SET threads = 1")
        self._n = len(df)
        t = df["t"]  # sorted: the span is its ends
        self._range = (int(t.iloc[0]), int(t.iloc[-1])) if self._n else (0, -1)

    def time_range(self) -> tuple[int, int]:
        return self._range

    def _fetch(self, sql: str, params: list) -> tuple[np.ndarray, np.ndarray]:
        # validate_frame made the columns BIGINT / DOUBLE without NULLs, so
        # they come back as plain int64 / float64 arrays. Rows are put in
        # oid order here: a stable sort of a few rows costs less than an
        # ORDER BY in the query.
        out = self._con.execute(sql, params).fetchnumpy()
        order = np.argsort(out["oid"], kind="stable")
        return out["oid"][order], np.column_stack([out["x"], out["y"]])[order]

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        return self._fetch("SELECT oid, x, y FROM points WHERE t = ?", [int(t)])

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        want = [int(o) for o in oids]
        if not want:
            return np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float64)
        ph = ",".join("?" * len(want))
        return self._fetch(
            f"SELECT oid, x, y FROM points WHERE t = ? AND oid IN ({ph})",
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

"""Relational store backed by DuckDB (the paper's ``k2-RDBMS``).

The paper stores ``(timestamp, oid, x, y)`` in a relational table with a
multi-column clustered index on (timestamp, oid); benchmark snapshots
are fetched with a ``WHERE t = ?`` scan and HWMT data with
``WHERE t = ? AND oid IN (...)`` point queries. DuckDB plays the RDBMS
role here — a real SQL engine. Rows are loaded in (t, oid) order to
model the clustered index, and an ART index on (t, oid) is built as the
paper's schema has one.

Both reads are batched, one statement per call, because a statement
costs about a millisecond however few rows it returns:

* ``snapshot`` — ``WHERE t IN (t1, t2, ...)``;
* ``points`` — the paper's point query once per distinct timestamp of
  the request, ``WHERE t = ? AND oid IN (...)`` with the union of that
  timestamp's objects, joined by ``UNION ALL`` into one statement.

The values are written into the SQL text, and only as ``int()`` casts
of the request. Measured with one DuckDB thread on a 4-core x86 box,
replaying every ``points`` call of a 36-query sweep (~3 timestamps per
call; 14 keys on trucks, 29 on tdrive), per call:

====================================  ==============  ===============
``points`` formulation                trucks, 37 k    tdrive, 493 k
                                      rows            rows
====================================  ==============  ===============
``UNION ALL`` of point queries        1.5 ms          4.1 ms
``SEMI JOIN (VALUES (t, oid), ...)``  1.5 ms          13.2 ms
the same, plus ``WHERE t IN (...)``   1.5 ms          7.5 ms
``OR`` of per-timestamp conjuncts     1.3 ms          25.2 ms
====================================  ==============  ===============

A branch of the union costs about as much as one point query alone
(0.3–0.6 ms on trucks, ~1.2 ms on tdrive), so a call is never much
dearer than the point queries it replaces. The semi-join scans the
whole table whatever it asks for (~15 ms on tdrive for 4 keys), and the
``OR`` grows with the timestamps (~60 ms for 30 on trucks). DuckDB
1.0.0 uses the ART index for neither read: ``EXPLAIN`` shows a
``SEQ_SCAN`` per timestamp with the ``t`` and ``oid`` filters pushed
into it.
"""
from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Collection, Sequence

import duckdb
import numpy as np
import pandas as pd

from repro.stores.base import RECORD, columns, validate_frame


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

    def _fetch(self, sql: str) -> tuple[np.ndarray, np.ndarray]:
        # validate_frame made the columns BIGINT / DOUBLE without NULLs, so
        # they come back as plain int64 / float64 arrays. Rows are put in
        # (t, oid) order here: sorting a few rows costs less than an
        # ORDER BY in the query.
        out = self._con.execute(sql).fetchnumpy()
        order = np.lexsort((out["oid"], out["t"]))
        return (
            np.column_stack([out["t"], out["oid"]])[order],
            np.column_stack([out["x"], out["y"]])[order],
        )

    def snapshot(self, t: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        ts = {int(u) for u in t}
        if not ts:
            return columns(np.empty(0, dtype=RECORD))
        return self._fetch(
            f"SELECT t, oid, x, y FROM points WHERE t IN ({','.join(map(str, ts))})"
        )

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        want: dict[int, set[int]] = {}
        for a, objs in zip(t, oids):
            want.setdefault(int(a), set()).update(int(o) for o in objs)
        queries = [
            f"SELECT t, oid, x, y FROM points WHERE t = {a} AND oid IN ({','.join(map(str, objs))})"
            for a, objs in want.items()
            if objs
        ]
        if not queries:
            return columns(np.empty(0, dtype=RECORD))
        return self._fetch(" UNION ALL ".join(queries))

    def total_points(self) -> int:
        return self._n

    def close(self) -> None:
        """Close the connection and delete the store's own temporary
        directory; a database path the caller passed in is kept."""
        self._con.close()
        if self._tmp is not None:
            self._tmp.cleanup()

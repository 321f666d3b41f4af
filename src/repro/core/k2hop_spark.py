"""k/2-hop on Spark: an executor of the phase sequence in ``core/k2hop.py``.

:func:`repro.core.k2hop.run_phases` owns the phase order; this module
supplies the Spark versions of the three pieces it takes, following the
repro mapping (scan/filter/groupBy over trajectory data partitioned by
key timestamps):

1. **Benchmark clustering** — ``df.filter(t ∈ B)`` (a Catalyst scan of
   ~2·|DB|/k of the data) then per-snapshot DBSCAN via
   ``groupBy("t").applyInPandas``.
2. **HWMT fan-out** — a (window, group, oid) candidate table is joined
   against the trajectory table (``oid`` equi-join + timestamp range
   predicate), which is exactly the "prune objects with map/filter"
   step: Catalyst plans a shuffle join that touches only candidate
   objects inside their windows. ``groupBy(window).applyInPandas`` then
   runs the sequential HWMT per window (windows are independent, the
   property the paper highlights for distribution).
3. **Extension store** — a second pruned read, restricted to the objects
   of the maximal spanning convoys, collected into a driver-side
   :class:`FileStore`.

The candidate step, merge, extension and validation run on the driver in
the shared sequence: the candidate and convoy sets are tiny (convoys are
rare).
"""
from __future__ import annotations

import math

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.core.convoy import Convoy
from repro.core.hwmt import hwmt
from repro.core.k2hop import K2HopResult, run_phases
from repro.core.spark_cluster import collect_cluster_sets, snapshot_clusters
from repro.stores import FileStore
from repro.stores.base import COLUMNS, reject

# Unused here; bound so perfbench/tracing.py's by-name hooks still resolve.
from repro.core.extend import extend  # noqa: F401
from repro.core.merge import dcm_merge  # noqa: F401
from repro.core.validate import validate  # noqa: F401

SPANNING_SCHEMA = StructType(
    [
        StructField("window", LongType()),
        StructField("ts", LongType()),
        StructField("te", LongType()),
        StructField("objs", ArrayType(LongType())),
    ]
)

_NO_POINTS = FileStore(pd.DataFrame(columns=COLUMNS))


def k2hop_spark(
    spark: SparkSession, df: DataFrame, m: int, k: int, eps: float
) -> K2HopResult:
    """Distributed k/2-hop over a (t, oid, x, y) DataFrame."""
    df = df.select(*COLUMNS)
    # validate_frame's row checks ride along in the one aggregate (null
    # and NaN fail every comparison, so they count as bad rows too).
    # Duplicate (t, oid) keys are not checked: that needs a shuffle.
    finite = [(F.col(c) > -math.inf) & (F.col(c) < math.inf) for c in ("x", "y")]
    good = {"non-integral t": F.col("t") % 1 == 0, "non-finite x/y": finite[0] & finite[1]}
    total, ts, te, *n_good = df.agg(
        F.count(F.lit(1)), F.min("t"), F.max("t"), *[F.count(F.when(g, 1)) for g in good.values()]
    ).first()
    reject({what: f"{total - n} rows" for what, n in zip(good, n_good) if n < total})
    # An empty frame has no min/max; (0, -1) is the stores' empty span.
    time_range = (int(ts), int(te)) if total else (0, -1)
    read: list[int] = []  # rows each Spark read below counted or collected

    def cluster_snapshots(bpts: list[int]) -> dict[int, list[frozenset[int]]]:
        """Benchmark snapshots: distributed scan + per-t clustering."""
        bench_df = df.filter(F.col("t").isin([int(b) for b in bpts]))
        read.append(bench_df.count())
        found = collect_cluster_sets(snapshot_clusters(bench_df, m, eps))
        return {b: found.get(b, []) for b in bpts}

    def mine_windows(
        windows: list[tuple[int, int]], ccs: list[list[frozenset[int]]]
    ) -> list[list[Convoy]]:
        """HWMT per hop-window over the pruned (window, grp, oid) join."""
        cand_rows = [
            (i, gi, int(oid), int(lo), int(hi))
            for i, ((lo, hi), cc) in enumerate(zip(windows, ccs))
            for gi, group in enumerate(cc)
            for oid in group
        ]
        found: dict[int, list[Convoy]] = {}
        if cand_rows:
            cand = spark.createDataFrame(
                pd.DataFrame(
                    cand_rows, columns=["window", "grp", "oid", "w_lo", "w_hi"]
                )
            )
            pruned = df.join(cand, on="oid").where(
                (F.col("t") > F.col("w_lo")) & (F.col("t") < F.col("w_hi"))
            )
            read.append(pruned.count())

            def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
                w = int(pdf["window"].iloc[0])
                lo, hi = int(pdf["w_lo"].iloc[0]), int(pdf["w_hi"].iloc[0])
                cc = [
                    frozenset(int(o) for o in grp["oid"].unique())
                    for _, grp in pdf.groupby("grp")
                ]
                store = FileStore(pdf[COLUMNS].drop_duplicates(["t", "oid"]))
                spanning = hwmt(store, (lo, hi), cc, m, eps)
                return pd.DataFrame(
                    [
                        (w, v.ts, v.te, sorted(v.objs))
                        for v in spanning
                    ],
                    columns=["window", "ts", "te", "objs"],
                )

            rows = (
                pruned.groupBy("window")
                .applyInPandas(_mine, SPANNING_SCHEMA)
                .collect()
            )
            for row in rows:
                found.setdefault(int(row["window"]), []).append(
                    Convoy(
                        ts=int(row["ts"]),
                        te=int(row["te"]),
                        objs=frozenset(row["objs"]),
                    )
                )
        # A window without result rows either lost its convoys or had no
        # candidate point inside. HWMT over no points says which: nothing,
        # unless the window has no interior and its candidates span it.
        return [
            found.get(i) or hwmt(_NO_POINTS, w, cc, m, eps)
            for i, (w, cc) in enumerate(zip(windows, ccs))
        ]

    def extension_store(merged: list[Convoy]) -> FileStore:
        """Whole trajectories of the maximal spanning convoys' objects."""
        if not merged:
            return _NO_POINTS  # nothing to extend or validate
        objs = sorted({int(o) for v in merged for o in v.objs})
        ext_pdf = df.filter(F.col("oid").isin(objs)).toPandas()
        read.append(len(ext_pdf))
        return FileStore(ext_pdf, time_range=time_range)

    res = run_phases(
        time_range, cluster_snapshots, mine_windows, extension_store, m, k, eps
    )
    res.points_processed = sum(read)
    res.pruning_pct = 100.0 * (1.0 - res.points_processed / total) if total else 0.0
    return res

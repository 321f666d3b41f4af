"""k/2-hop on Spark: an executor of the phase sequence in ``core/k2hop.py``.

:func:`repro.core.k2hop.run_phases` owns the phase order; this module
supplies the Spark versions of the three pieces it takes, following the
repro mapping (scan/filter/groupBy over trajectory data partitioned by
key timestamps):

1. **Benchmark clustering** — ``df.filter(t ∈ B)`` (a Catalyst scan of
   ~2·|DB|/k of the data) then per-snapshot DBSCAN via
   ``groupBy("t").applyInPandas``.
2. **HWMT fan-out** — a (window, oid) candidate table is joined
   against the trajectory table (``oid`` equi-join + timestamp range
   predicate), which is exactly the "prune objects with map/filter"
   step: Catalyst plans a shuffle join that touches only candidate
   objects inside their windows. ``groupBy(window).applyInPandas`` then
   runs the sequential HWMT per window (windows are independent, the
   property the paper highlights for distribution).
3. **Extension store** — a second pruned read, restricted to the objects
   of the maximal spanning convoys, collected into a driver-side
   :class:`FileStore`.

The input is checked, its span taken and its plan re-rooted on
checkpointed rows by :func:`~repro.core.spark_cluster.spark_input`, the
boundary all three Spark miners share, so no job of the query re-plans
the rows the caller's ``createDataFrame`` embedded. The benchmark and
HWMT reads are counted by observing the frames their ``applyInPandas``
jobs scan, so counting adds no job. The candidate step, merge, extension
and validation run on the driver in the shared sequence: the candidate
and convoy sets are tiny (convoys are rare).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.clustering import Memo
from repro.core.convoy import Convoy
from repro.core.hwmt import hwmt
from repro.core.k2hop import K2HopResult, run_phases
from repro.core.spark_cluster import (
    collect_cluster_sets,
    collect_convoys,
    convoy_frame,
    convoy_schema,
    snapshot_clusters,
    spark_input,
)
from repro.stores import FileStore
from repro.stores.base import COLUMNS

# Unused here; bound so perfbench/tracing.py's by-name hooks still resolve.
from repro.core.extend import extend  # noqa: F401
from repro.core.merge import dcm_merge  # noqa: F401
from repro.core.validate import validate  # noqa: F401

_NO_POINTS = FileStore(pd.DataFrame(columns=COLUMNS))


def _counted(frame: DataFrame) -> tuple[DataFrame, Observation]:
    """``frame`` observed: the Observation's ``n`` is the number of its rows
    that the first job over it scans."""
    seen = Observation()
    return frame.observe(seen, F.count(F.lit(1)).alias("n")), seen


def k2hop_spark(
    spark: SparkSession, df: DataFrame, m: int, k: int, eps: float
) -> K2HopResult:
    """Distributed k/2-hop over a (t, oid, x, y) DataFrame."""
    with spark_input(df) as (df, total, time_range):
        read: list[int] = []  # rows each Spark read below scanned or collected

        def cluster_snapshots(bpts: list[int]) -> dict[int, list[frozenset[int]]]:
            """Benchmark snapshots: distributed scan + per-t clustering."""
            bench_df, seen = _counted(df.filter(F.col("t").isin([int(b) for b in bpts])))
            found = collect_cluster_sets(snapshot_clusters(bench_df, m, eps))
            read.append(seen.get["n"])
            return {b: found.get(b, []) for b in bpts}

        def mine_windows(
            windows: list[tuple[int, int]], ccs: list[list[frozenset[int]]], _memo: Memo
        ) -> list[list[Convoy]]:
            """HWMT per hop-window over the pruned (window, oid) join. It runs
            on the workers, so only extension and validation share the memo."""
            cand_rows = [
                (i, int(oid), int(lo), int(hi))
                for i, ((lo, hi), cc) in enumerate(zip(windows, ccs))
                for group in cc
                for oid in group
            ]
            found: dict[int, list[Convoy]] = {}
            if cand_rows:
                cand = spark.createDataFrame(
                    pd.DataFrame(cand_rows, columns=["window", "oid", "w_lo", "w_hi"])
                )
                pruned, seen = _counted(
                    df.join(cand, on="oid").where(
                        (F.col("t") > F.col("w_lo")) & (F.col("t") < F.col("w_hi"))
                    )
                )

                def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
                    # A window's groups are disjoint and spark_input rejected
                    # duplicate keys, so its rows have unique (t, oid) keys.
                    w = int(pdf["window"].iloc[0])
                    spanning = hwmt(FileStore(pdf), [windows[w]], [ccs[w]], m, eps)[0]
                    return convoy_frame("window", w, spanning)

                mined = pruned.groupBy("window").applyInPandas(_mine, convoy_schema("window"))
                found = collect_convoys(mined.collect(), "window")
                read.append(seen.get["n"])
            # A window without result rows either lost its convoys or had no
            # candidate point inside. HWMT over no points says which: nothing,
            # unless the window has no interior and its candidates span it.
            return [
                found.get(i) or hwmt(_NO_POINTS, [w], [cc], m, eps)[0]
                for i, (w, cc) in enumerate(zip(windows, ccs))
            ]

        def extension_store(merged: list[Convoy]) -> FileStore:
            """Whole trajectories of the maximal spanning convoys' objects."""
            if not merged:
                return _NO_POINTS  # nothing to extend or validate
            objs = sorted({int(o) for v in merged for o in v.objs})
            ext_pdf = df.filter(F.col("oid").isin(objs)).toPandas()
            read.append(len(ext_pdf))
            # Its span may be narrower than the dataset's: extension stops at
            # the first timestamp without points either way.
            return FileStore(ext_pdf)

        res = run_phases(
            time_range, cluster_snapshots, mine_windows, extension_store, m, k, eps
        )
        res.points_processed = sum(read)
        res.pruning_pct = 100.0 * (1.0 - res.points_processed / total) if total else 0.0
        return res

"""DCM — Distributed Convoy Mining (Orakzai et al. [16, 18]) on Spark.

The timeline is range-partitioned into chunks of ``part_len`` timestamps
(with the boundary timestamp replicated into both neighbors, as DCM's
temporal partitioning requires); each chunk is mined independently with
the corrected CMC sweep (interior convoys of length ≥ k, plus *all*
edge-touching fragments), and the per-chunk results are merged across
boundaries with the DCM merge operator — the same one k/2-hop reuses in
its step 4.

``part_len`` is exactly the data-dependent parameter the paper
criticizes: too small → merge-dominated, too large → no parallelism.
The default 4·k is a reasonable middle; the tests check that the
convoys found do not depend on it.

Output: maximal partially-connected convoys (DCM's semantics, following
CMC). The tests cross-check it against PCCD.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.convoy import Convoy
from repro.core.merge import dcm_merge
from repro.core.spark_cluster import collect_convoys, convoy_frame, convoy_schema, spark_input
from repro.core.sweep import store_cluster_seq, sweep_maximal_convoys
from repro.stores import FileStore


def dcm(
    spark: SparkSession,
    df: DataFrame,
    m: int,
    k: int,
    eps: float,
    *,
    part_len: int | None = None,
) -> list[Convoy]:
    """Mine maximal (partially-connected) convoys with temporal
    partitioning on Spark."""
    if part_len is None:
        part_len = 4 * k
    rooted, total, (ts, te) = spark_input(df)
    if not total:
        return []
    L = int(part_len)

    # Chunk p owns [ts + p·L, ts + (p+1)·L]; its right boundary is the
    # next chunk's left boundary, so boundary rows go to both.
    rel = F.col("t") - F.lit(ts)
    base = rooted.withColumn("p", F.floor(rel / L))
    dup = rooted.where((rel % L == 0) & (rel > 0)).withColumn(
        "p", F.floor(rel / L) - 1
    )
    parts = base.unionByName(dup)

    def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
        # A timestamp without rows yields no clusters, which closes every
        # open candidate just as the sweep's gap rule does.
        p = int(pdf["p"].iloc[0])
        lo = ts + p * L
        hi = min(ts + (p + 1) * L, te)
        seq = store_cluster_seq(FileStore(pdf), m, eps, t_range=(lo, hi))
        return convoy_frame("p", p, sweep_maximal_convoys(seq, m, k, edge_ts=(lo, hi)))

    rows = parts.groupBy("p").applyInPandas(_mine, convoy_schema("p")).collect()
    per_part = collect_convoys(rows, "p")
    n_parts = (te - ts) // L + 1
    merged = dcm_merge([per_part.get(p, []) for p in range(n_parts)], m)
    return [v for v in merged if v.length >= k]

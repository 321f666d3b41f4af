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
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.core.clustering import meps_clusters
from repro.core.convoy import Convoy, antichain
from repro.core.merge import dcm_merge
from repro.core.sweep import sweep_maximal_convoys

PART_SCHEMA = StructType(
    [
        StructField("p", LongType()),
        StructField("ts", LongType()),
        StructField("te", LongType()),
        StructField("objs", ArrayType(LongType())),
    ]
)


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
    df = df.select("t", "oid", "x", "y")
    ts, te = df.agg(F.min("t"), F.max("t")).first()
    if ts is None:  # no rows
        return []
    ts, te = int(ts), int(te)
    L = int(part_len)

    # Chunk p owns [ts + p·L, ts + (p+1)·L]; its right boundary is the
    # next chunk's left boundary, so boundary rows go to both.
    rel = F.col("t") - F.lit(ts)
    base = df.withColumn("p", F.floor(rel / L))
    dup = df.where((rel % L == 0) & (rel > 0)).withColumn(
        "p", F.floor(rel / L) - 1
    )
    parts = base.unionByName(dup)

    def _mine(pdf: pd.DataFrame) -> pd.DataFrame:
        p = int(pdf["p"].iloc[0])
        lo = ts + p * L
        hi = min(ts + (p + 1) * L, te)
        def seq():
            for t, grp in pdf.sort_values("t").groupby("t"):
                yield int(t), meps_clusters(
                    grp["oid"].to_numpy(), grp[["x", "y"]].to_numpy(), m, eps
                )
        found = sweep_maximal_convoys(seq(), m, k, edge_ts=(lo, hi))
        return pd.DataFrame(
            [(p, v.ts, v.te, sorted(v.objs)) for v in found],
            columns=["p", "ts", "te", "objs"],
        )

    rows = parts.groupBy("p").applyInPandas(_mine, PART_SCHEMA).collect()
    per_part: dict[int, list[Convoy]] = {}
    for r in rows:
        per_part.setdefault(int(r["p"]), []).append(
            Convoy(ts=int(r["ts"]), te=int(r["te"]), objs=frozenset(r["objs"]))
        )
    n_parts = (te - ts) // L + 1
    merged = dcm_merge([per_part.get(p, []) for p in range(n_parts)], m)
    return sorted(antichain([v for v in merged if v.length >= k]))

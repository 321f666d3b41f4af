"""Per-snapshot density clustering as a Spark dataflow.

Clustering is a physical spatial operator with no Catalyst expression,
so it runs as ``groupBy("t").applyInPandas`` — Catalyst plans the scan,
filter and shuffle; the per-snapshot DBSCAN runs vectorized in Arrow
batches. This is the same shape SPARE's first MapReduce stage uses
(timestamp as the map key, clustering in the reduce), and the shape the
repro hint prescribes for this paper.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.clustering import meps_clusters

CLUSTERS_SCHEMA = StructType(
    [
        StructField("t", LongType()),
        StructField("oid", LongType()),
        StructField("cid", LongType()),
    ]
)


def snapshot_clusters(df: DataFrame, m: int, eps: float) -> DataFrame:
    """(t, oid, x, y) → (t, oid, cid) membership of each snapshot's
    (m,eps)-clusters (``meps_clusters``); cids are unique within a
    timestamp only. Objects in no cluster have no row.
    """

    def _cluster(pdf: pd.DataFrame) -> pd.DataFrame:
        # Spark hands a group's rows over in no set order; DBSCAN's border
        # ownership follows row order, and the stores serve oid order.
        pdf = pdf.sort_values("oid")
        clusters = meps_clusters(pdf["oid"].to_numpy(), pdf[["x", "y"]].to_numpy(), m, eps)
        sizes = [len(c) for c in clusters]
        return pd.DataFrame(
            {
                "t": np.full(sum(sizes), pdf["t"].iat[0], dtype=np.int64),
                "oid": np.fromiter((o for c in clusters for o in c), np.int64, sum(sizes)),
                "cid": np.repeat(np.arange(len(clusters), dtype=np.int64), sizes),
            }
        )

    return df.groupBy("t").applyInPandas(_cluster, CLUSTERS_SCHEMA)


def collect_cluster_sets(
    clusters: DataFrame,
) -> dict[int, list[frozenset[int]]]:
    """Collect a (t, oid, cid) frame into {t: [cluster object sets]}."""
    pdf = clusters.toPandas()
    out: dict[int, list[frozenset[int]]] = {}
    for (t, _cid), grp in pdf.groupby(["t", "cid"]):
        out.setdefault(int(t), []).append(frozenset(int(o) for o in grp["oid"]))
    return out

"""The Spark pieces that k/2-hop on Spark, DCM and SPARE share.

* :func:`spark_input` — the one Spark input boundary: it re-roots the
  input on block-manager copies of its rows, and takes the row count, span
  and row checks from one aggregate.
* :func:`snapshot_clusters` — per-snapshot density clustering. It has no
  Catalyst expression, so it runs as ``groupBy("t").applyInPandas``:
  Catalyst plans the scan, filter and shuffle, and DBSCAN runs per
  snapshot in Arrow batches — the shape of SPARE's first MapReduce stage
  (timestamp as the map key, clustering in the reduce) and the one the
  repro hint prescribes for this paper.
* :func:`convoy_schema` / :func:`convoy_frame` / :func:`collect_convoys`
  — the one convoy row codec: convoys leave a Python worker as
  ``(key, ts, te, objs)`` rows and reach the driver grouped by key.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Row
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, LongType, StructField, StructType

from repro.core.clustering import meps_clusters
from repro.core.convoy import Convoy
from repro.stores.base import COLUMNS, reject

CLUSTERS_SCHEMA = StructType(
    [
        StructField("t", LongType()),
        StructField("oid", LongType()),
        StructField("cid", LongType()),
    ]
)


@contextmanager
def spark_input(df: DataFrame) -> Iterator[tuple[DataFrame, int, tuple[int, int]]]:
    """Yield ``df``'s (t, oid, x, y) columns re-rooted, its row count and its
    span (Ts, Te); release the re-rooted rows on exit.

    Every caller builds its input with ``createDataFrame(pandas)``, whose
    plan embeds all rows in a ``LocalRelation``; ``cache()`` keeps it in
    the plan, so every job on the frame pays for them again (this check's
    aggregate took ~0.8 s on the cached 493 k-row tdrive frame and ~0.2 s
    on the checkpointed one, 4 cores). A local checkpoint copies the rows
    into block-manager RDD blocks and leaves a plan that holds no data. It
    is taken of the caller's own frame, whose plan Spark has already
    analysed; a ``select`` first would plan the embedded rows afresh, so
    the columns are selected afterwards, and only when they differ. The
    checkpoint is lazy: the first job on it, the one aggregate below, fills
    the blocks. They are registered before that job runs, so they are
    released however the ``with`` body exits, even when that job fails.

    The aggregate takes the count and span and counts validate_frame's
    bad rows (null and NaN fail every comparison, so they count too); any
    bad row raises its ``ValueError``. A duplicate is a row beyond the first
    of its (t, oid) key; a row whose t or oid is null has no key, so it
    counts as one too.
    """
    finite = [(F.col(c) > -math.inf) & (F.col(c) < math.inf) for c in ("x", "y")]
    # Each check's aggregate counts the rows that pass it.
    passing = {
        "non-integral t": F.count(F.when(F.col("t") % 1 == 0, 1)),
        "non-finite x/y": F.count(F.when(finite[0] & finite[1], 1)),
        "duplicate (t, oid)": F.count_distinct("t", "oid"),
    }
    df = df.localCheckpoint(eager=False)
    # ``DataFrame.unpersist`` leaves checkpoint blocks alone; their RDD
    # releases them.
    blocks = df._jdf.queryExecution().logical().rdd()
    try:
        if df.columns != COLUMNS:
            df = df.select(*COLUMNS)
        total, ts, te, *n_pass = df.agg(
            F.count(F.lit(1)), F.min("t"), F.max("t"), *passing.values()
        ).first()
        reject({what: f"{total - n} rows" for what, n in zip(passing, n_pass) if n < total})
        # An empty frame has no min/max; (0, -1) is the stores' empty span.
        yield df, total, (int(ts), int(te)) if total else (0, -1)
    finally:
        blocks.unpersist(True)


def snapshot_clusters(df: DataFrame, m: int, eps: float) -> DataFrame:
    """(t, oid, x, y) → (t, oid, cid) membership of each snapshot's
    (m,eps)-clusters (``meps_clusters``); cids are unique within a
    timestamp only. Objects in no cluster have no row.
    """

    def _cluster(pdf: pd.DataFrame) -> pd.DataFrame:
        # Spark hands a group's rows over in no set order; DBSCAN's border
        # ownership follows row order, and the stores serve oid order.
        pdf = pdf.sort_values("oid")
        clusters = meps_clusters(pdf["oid"].to_numpy(), pdf[["x", "y"]].to_numpy(), m, eps)[0]
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


def convoy_schema(key: str) -> StructType:
    """Convoy rows ``(key, ts, te, objs)``, tagged by a long ``key``."""
    return StructType(
        [
            StructField(key, LongType()),
            StructField("ts", LongType()),
            StructField("te", LongType()),
            StructField("objs", ArrayType(LongType())),
        ]
    )


def convoy_frame(key: str, value: int, convoys: Iterable[Convoy]) -> pd.DataFrame:
    """``convoys`` as rows of :func:`convoy_schema` ``(key)``, all tagged ``value``."""
    return pd.DataFrame(
        [(value, v.ts, v.te, sorted(v.objs)) for v in convoys],
        columns=[key, "ts", "te", "objs"],
    )


def collect_convoys(rows: Iterable[Row], key: str) -> dict[int, list[Convoy]]:
    """Collected rows of :func:`convoy_schema` ``(key)`` → {key: convoys}."""
    out: dict[int, list[Convoy]] = {}
    for r in rows:
        out.setdefault(int(r[key]), []).append(
            Convoy(ts=int(r["ts"]), te=int(r["te"]), objs=frozenset(r["objs"]))
        )
    return out

"""The Spark pieces that k/2-hop on Spark, DCM and SPARE share.

* :func:`spark_input` — the one Spark input boundary: it re-roots the
  input on block-manager copies of its rows, and takes the row count, span
  and row checks from one aggregate. It does so once per DataFrame object
  and holds the result until the caller drops that object, so repeated
  queries on one frame pay for neither again; a frame whose source data
  changes must be rebuilt to be re-read.
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

import weakref
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, Row
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


#: spark_input's result for each caller frame still alive
_INPUTS: weakref.WeakKeyDictionary[DataFrame, tuple[DataFrame, int, tuple[int, int]]] = (
    weakref.WeakKeyDictionary()
)

#: the rows that pass each input check, as parsed SQL aggregates
_PASSING = {
    "non-integral t": "count(CASE WHEN t % 1 = 0 THEN 1 END)",
    "non-finite x/y": "count(CASE WHEN "
    + " AND ".join(f"{c} > double('-inf') AND {c} < double('inf')" for c in ("x", "y"))
    + " THEN 1 END)",
    "duplicate (t, oid)": "count(DISTINCT t, oid)",
}


def spark_input(df: DataFrame) -> tuple[DataFrame, int, tuple[int, int]]:
    """``df``'s (t, oid, x, y) columns re-rooted, its row count and its span
    (Ts, Te), checked and re-rooted once per ``df`` object.

    The result is kept for as long as the caller holds ``df``: every later
    call on the same object, by any Spark miner, returns it without a job.
    A frame whose source data changes must be rebuilt to be re-read. The
    re-rooted rows are released when ``df`` is dropped; a miner keeps its
    ``df`` argument alive while it runs on them. A failed check keeps
    nothing, so a malformed frame raises on every call.

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
    the blocks. Their release is registered before that job runs, so they
    are released at once when it fails or a check rejects the frame.

    The aggregate is one parsed SQL string (a ``Column`` operator is a py4j
    call each). It takes the count and span and counts validate_frame's bad
    rows (null and NaN fail every comparison, so they count too); any bad
    row raises its ``ValueError``. A duplicate is a row beyond the first of
    its (t, oid) key; a row whose t or oid is null has no key, so it counts
    as one too.
    """
    got = _INPUTS.get(df)
    if got is not None:
        return got
    rooted = df.localCheckpoint(eager=False)
    # ``DataFrame.unpersist`` leaves checkpoint blocks alone; their RDD
    # releases them.
    blocks = rooted._jdf.queryExecution().logical().rdd()
    release = weakref.finalize(df, _release, df.sparkSession.sparkContext, blocks)
    release.atexit = False
    try:
        if rooted.columns != COLUMNS:
            rooted = rooted.select(*COLUMNS)
        total, ts, te, *n_pass = rooted.selectExpr(
            "count(1)", "min(t)", "max(t)", *_PASSING.values()
        ).first()
        reject({what: f"{total - n} rows" for what, n in zip(_PASSING, n_pass) if n < total})
    except BaseException:
        release()
        raise
    # An empty frame has no min/max; (0, -1) is the stores' empty span.
    got = _INPUTS[df] = rooted, total, (int(ts), int(te)) if total else (0, -1)
    return got


def _release(sc: SparkContext, blocks) -> None:
    """Unpersist the checkpoint RDD ``blocks`` of a frame of ``sc``; once
    ``sc`` is no longer the active context, its JVM objects are gone."""
    if SparkContext._active_spark_context is sc:
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

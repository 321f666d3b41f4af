"""SPARE — Star Partitioning and ApRiori Enumerator (Fan et al. [7]) on
Spark, instantiated for the convoy pattern (GCMP with a strict
consecutiveness constraint).

Two pipelined stages, as in the original:

1. **Snapshot clustering** (the stage the paper faults SPARE for
   treating as free preprocessing): per-timestamp DBSCAN via
   ``groupBy("t").applyInPandas`` over the *whole* dataset.
2. **Star partitioning + apriori enumeration**: every cluster, one
   convoy row from stage 1, is mapped (``mapInPandas``, no shuffle) into
   stars — for each member ``o``, the neighbors with a larger oid —
   which are shuffled by star vertex; each star then enumerates, by
   depth-first apriori over its neighbor sets with run-length pruning
   (SPARE's sequence simplification), the maximal object groups
   containing its vertex as minimum that stay co-clustered for ≥ k
   consecutive timestamps.

A final driver-side antichain removes cross-star subsumptions. Output:
maximal partially-connected convoys — the tests assert equality with
PCCD, and the benchmarks compare its runtime against k/2-hop (Fig 7d).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.convoy import Convoy, antichain
from repro.core.spark_cluster import (
    collect_convoys,
    convoy_frame,
    convoy_schema,
    snapshot_clusters,
    spark_input,
)

STAR_SCHEMA = StructType(
    [
        StructField("star", LongType()),
        StructField("t", LongType()),
        StructField("nbr", LongType()),
    ]
)


def _stars(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """Decompose clusters, one a row, into star edges (o → larger p)."""
    for pdf in batches:
        rows = []
        for t, objs in zip(pdf["t"], pdf["objs"]):
            oids = sorted(int(o) for o in objs)
            for i, o in enumerate(oids):
                for p in oids[i + 1 :]:
                    rows.append((o, int(t), p))
        yield pd.DataFrame(rows, columns=["star", "t", "nbr"])


def _max_runs(times: list[int], k: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive timestamps with length ≥ k."""
    runs = []
    if not times:
        return runs
    s = prev = times[0]
    for t in times[1:]:
        if t != prev + 1:
            if prev - s + 1 >= k:
                runs.append((s, prev))
            s = t
        prev = t
    if prev - s + 1 >= k:
        runs.append((s, prev))
    return runs


def _enumerate_star(pdf: pd.DataFrame, k: int, m: int) -> pd.DataFrame:
    """Apriori/DFS enumeration of one star's maximal groups."""
    star = int(pdf["star"].iloc[0])
    nbr_times: dict[int, set[int]] = {}
    for nbr, grp in pdf.groupby("nbr"):
        nbr_times[int(nbr)] = set(int(t) for t in grp["t"])
    # Apriori level 1: a neighbor is useful only if {star, nbr} already
    # has a run ≥ k (SPARE's sequence simplification).
    frequent = sorted(
        q for q, ts in nbr_times.items() if _max_runs(sorted(ts), k)
    )
    out: list[Convoy] = []

    def dfs(chosen: list[int], times: set[int], start_idx: int) -> None:
        extended_somewhere = {}
        for idx in range(start_idx, len(frequent)):
            q = frequent[idx]
            inter = times & nbr_times[q]
            runs = _max_runs(sorted(inter), k)
            if not runs:
                continue
            for r in runs:
                extended_somewhere.setdefault(r, []).append(q)
            dfs(chosen + [q], inter, idx + 1)
        if len(chosen) + 1 >= m:
            for s, e in _max_runs(sorted(times), k):
                # Forward closure: skip if some single extension keeps
                # the exact same run (a superset with equal support).
                if any(
                    rs <= s and e <= re
                    for (rs, re), _qs in extended_somewhere.items()
                ):
                    continue
                out.append(Convoy(ts=s, te=e, objs=frozenset([star] + chosen)))

    dfs([], set(int(t) for t in pdf["t"].unique()), 0)
    return convoy_frame("star", star, antichain(out))


def spare(
    spark: SparkSession, df: DataFrame, m: int, k: int, eps: float
) -> list[Convoy]:
    """Maximal (partially-connected) convoys via the SPARE pipeline."""
    rooted, _total, _span = spark_input(df)
    clusters = snapshot_clusters(rooted, m, eps)
    stars = clusters.mapInPandas(_stars, STAR_SCHEMA)
    cands = stars.groupBy("star").applyInPandas(
        lambda pdf: _enumerate_star(pdf, k, m), convoy_schema("star")
    )
    per_star = collect_convoys(cands.collect(), "star")
    return sorted(antichain(v for found in per_star.values() for v in found))

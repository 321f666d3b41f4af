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
3. **Extension store** — a :class:`HopStore` on the driver. Its first
   job collects each merged convoy object's rows over the hull of
   ``[ts − h, te + h]`` (h = ⌊k/2⌋) of the merged convoys that hold it:
   one Catalyst filter, an OR of ``oid IN (…) AND t BETWEEN lo AND hi``
   per distinct range. Extension and validation read from those rows; a
   round that asks past an object's range runs one more job.

The input is checked, its span taken and its plan re-rooted on
checkpointed rows by :func:`~repro.core.spark_cluster.spark_input`, the
boundary all three Spark miners share, so no job of the query re-plans
the rows the caller's ``createDataFrame`` embedded. That is done once per
DataFrame object and held until the caller drops that object: repeated
queries on one frame run no check job, and a frame whose source data
changes must be rebuilt to be re-read. The benchmark and
HWMT reads are counted by observing the frames their ``applyInPandas``
jobs scan, so counting adds no job; the extension store counts the rows
it collects. The candidate step, merge, extension and validation run on
the driver in the shared sequence: the candidate and convoy sets are tiny
(convoys are rare).
"""
from __future__ import annotations

from typing import Collection, Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core.benchmarks import hop_length
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
from repro.stores.base import COLUMNS, RECORD, columns, merge, read, to_run, validate_frame

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


def range_filter(ranges: Iterable[tuple[int, int, int]]) -> Column:
    """The rows of object ``o`` with ``lo <= t <= hi``, for every ``(o, lo,
    hi)`` of ``ranges`` (at least one): one ``oid IN (…) AND t BETWEEN lo
    AND hi`` disjunct per distinct ``(lo, hi)``.

    It is one SQL expression, parsed in one call. Built from ``Column``
    operators, a py4j call each, a tdrive query's filter took ~57 ms just
    to build; parsed from one string, its whole collection job takes ~80 ms
    (4 cores)."""
    objs: dict[tuple[int, int], list[int]] = {}
    for o, lo, hi in ranges:
        objs.setdefault((int(lo), int(hi)), []).append(int(o))
    return F.expr(" OR ".join(
        f"(oid IN ({', '.join(map(str, sorted(os)))}) AND t BETWEEN {lo} AND {hi})"
        for (lo, hi), os in objs.items()
    ))


class HopStore:
    """The store extension and validation read on the driver: each object's
    rows over one interval of timestamps, collected from ``df`` and grown
    on demand.

    The first collection takes every object of the ``merged`` convoys over
    the hull of ``[v.ts − h, v.te + h]`` across the convoys ``v`` that hold
    it, clipped to ``span``, the span of ``df`` (h = ⌊k/2⌋, so the hull
    reaches the benchmark points beside each convoy). Semi-connected
    extension can in principle run past the hull, when a branch is held
    together by objects that later leave. So a :meth:`points` call that
    asks for ``(t, o)`` outside ``o``'s interval first runs one job for the
    whole call, collecting the missing timestamps plus one more hop for
    every such object. ``collected`` counts each collected row once.

    It serves the two reads extension and validation make, ``time_range``
    (the span of ``df``) and ``points``.
    """

    def __init__(self, df: DataFrame, span: tuple[int, int], h: int, merged: Sequence[Convoy]):
        self._df, self._span, self._h = df, span, h
        self._run = np.empty(0, dtype=RECORD)
        self._have: dict[int, tuple[int, int]] = {}  # oid → its collected interval
        self.collected = 0
        hull: dict[int, tuple[int, int]] = {}
        for v in merged:
            for o in v.objs:
                lo, hi = hull.get(o, (v.ts, v.te))
                hull[o] = (min(lo, v.ts), max(hi, v.te))
        self._grow(hull)

    def _grow(self, want: dict[int, tuple[int, int]]) -> None:
        """Widen each object's interval to cover ``want[o]`` plus one hop
        each side, clipped to the span, collecting what it lacked in one job
        (none when it lacked nothing)."""
        ts, te = self._span
        lack: list[tuple[int, int, int]] = []
        for o, (lo, hi) in want.items():
            lo, hi = max(ts, lo - self._h), min(te, hi + self._h)
            if o in self._have:
                a, b = self._have[o]
                lack += [(o, p, q) for p, q in ((lo, a - 1), (b + 1, hi)) if p <= q]
                lo, hi = min(lo, a), max(hi, b)
            else:
                lack.append((o, lo, hi))
            self._have[o] = (lo, hi)
        if lack:
            pdf = self._df.filter(range_filter(lack)).toPandas()
            self.collected += len(pdf)
            self._run = merge([self._run, to_run(validate_frame(pdf))])

    def time_range(self) -> tuple[int, int]:
        return self._span

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        ts, te = self._span
        past: dict[int, tuple[int, int]] = {}  # oid → the timestamps asked past it
        for ti, objs in zip(t, oids):
            if not ts <= ti <= te:
                continue  # no rows there to collect
            for o in objs:
                lo, hi = self._have.get(o, (0, -1))
                if not lo <= ti <= hi:
                    a, b = past.get(o, (ti, ti))
                    past[o] = (min(a, ti), max(b, ti))
        self._grow(past)
        return columns(read(self._run, t, oids))


def k2hop_spark(
    spark: SparkSession, df: DataFrame, m: int, k: int, eps: float
) -> K2HopResult:
    """Distributed k/2-hop over a (t, oid, x, y) DataFrame."""
    rooted, total, time_range = spark_input(df)
    scanned: list[int] = []  # rows the benchmark and HWMT reads scanned
    stores: list[HopStore] = []  # the query's extension store, once made

    def cluster_snapshots(bpts: list[int]) -> dict[int, list[frozenset[int]]]:
        """Benchmark snapshots: distributed scan + per-t clustering."""
        bench_df, seen = _counted(rooted.filter(F.col("t").isin([int(b) for b in bpts])))
        found = collect_cluster_sets(snapshot_clusters(bench_df, m, eps))
        scanned.append(seen.get["n"])
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
                rooted.join(cand, on="oid").where(
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
            scanned.append(seen.get["n"])
        # A window without result rows either lost its convoys or had no
        # candidate point inside. HWMT over no points says which: nothing,
        # unless the window has no interior and its candidates span it.
        return [
            found.get(i) or hwmt(_NO_POINTS, [w], [cc], m, eps)[0]
            for i, (w, cc) in enumerate(zip(windows, ccs))
        ]

    def extension_store(merged: list[Convoy]) -> HopStore:
        """The maximal spanning convoys' objects, one hop around each."""
        stores.append(HopStore(rooted, time_range, hop_length(k), merged))
        return stores[-1]

    res = run_phases(
        time_range, cluster_snapshots, mine_windows, extension_store, m, k, eps
    )
    res.points_processed = sum(scanned) + sum(s.collected for s in stores)
    res.pruning_pct = 100.0 * (1.0 - res.points_processed / total) if total else 0.0
    return res

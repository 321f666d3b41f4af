"""The paper's evaluation (Section 6) as tables: one driver.

Provides the dataset registry (the three scaled paper-dataset
substitutes with a per-dataset reference eps and k-grid), store
construction, timed runners for every algorithm, and one row builder per
EXPERIMENTS.md table, registered by name in :data:`TABLES`. Print them
as markdown with::

    python -m repro.experiments [--size test|bench] [TABLE ...]

(no names: every table). Only the :data:`SPARK_TABLES` (``gain_spare``,
``gain_dcm`` and ``scalability``) start a Spark session; importing this
module does not import pyspark. Timing under load, with repeats and
spreads, is ``perfbench/``'s job; these tables are one run per cell.

Parameter grids: the paper sweeps k ∈ {200..1200} on timelines of tens
of thousands of timestamps, m ∈ {3,6,9} and eps over ±10×. Our datasets
are scaled down (DESIGN.md §4), so k is swept over the same *fractions*
of the timeline the paper's grid covers, m over the same {3,6,9}, and
eps over {½×, 1×, 2×} of the generator's reference eps (±10× collapses
our smaller scenes into one blob / all noise; the ½–2× band spans the
same qualitative regimes: more clusters ↔ fewer clusters).
"""
from __future__ import annotations

import argparse
import os
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.baselines.cmc import pccd
from repro.baselines.vcoda import vcoda, vcoda_star
from repro.core.k2hop import K2HopResult, k2hop
from repro.stores import FileStore, LSMTStore, MeteredStore, RDBMSStore
from repro.synth_data import brinkhoff_like, convoy_scene, tdrive_like, trucks_like


@dataclass
class Dataset:
    name: str
    df: pd.DataFrame
    truth: list
    eps_ref: float
    n_timestamps: int

    @property
    def n_points(self) -> int:
        return len(self.df)

    def k_grid(self, n: int = 6) -> list[int]:
        """k at the paper's timeline fractions (~7 %…42 % for Trucks)."""
        fracs = [0.07, 0.14, 0.21, 0.28, 0.35, 0.42][:n]
        return [max(4, int(f * self.n_timestamps)) for f in fracs]


#: 'test' sizes keep the whole suite fast; 'bench' sizes are the
#: EXPERIMENTS.md defaults.
_SCALES = {
    "trucks": {"test": 0.02, "bench": 0.1},
    "tdrive": {"test": 0.004, "bench": 0.02},
    "brinkhoff": {"test": 0.004, "bench": 0.02},
}
DATASETS = tuple(_SCALES)


def dataset(name: str, size: str = "bench") -> Dataset:
    """Materialize one of the three paper-dataset substitutes."""
    scale = _SCALES[name][size]
    if name == "trucks":
        df, truth = trucks_like(scale=scale)
        eps = 100.0
    elif name == "tdrive":
        df, truth = tdrive_like(scale=scale)
        eps = 100.0
    elif name == "brinkhoff":
        df, truth, _props = brinkhoff_like(scale=scale)
        eps = 100.0
    else:
        raise KeyError(name)
    return Dataset(name, df, truth, eps, int(df.t.nunique()))


STORE_KINDS = ("file", "rdbms", "lsmt")


def make_store(kind: str, df: pd.DataFrame):
    """Instantiate one of the paper's three storage substrates."""
    if kind == "file":
        return FileStore(df)
    if kind == "rdbms":
        return RDBMSStore(df)
    if kind == "lsmt":
        return LSMTStore(df)
    raise KeyError(kind)


def run_k2hop(
    df: pd.DataFrame, store_kind: str, m: int, k: int, eps: float
) -> tuple[float, K2HopResult]:
    """Build the store, run k/2-hop with metering, return (s, result).

    Store build time is excluded, as in the paper (data is loaded into
    the store once; queries with different m/k/eps reuse it — k/2-hop's
    design requirement (6) in §5).
    """
    with closing(make_store(store_kind, df)) as store:
        return timed(k2hop, MeteredStore(store), m, k, eps)


def run_vcoda(
    df: pd.DataFrame, m: int, k: int, eps: float, *, star: bool = True
) -> tuple[float, list]:
    """VCoDA(*) over an in-memory store (its original setting)."""
    return timed(vcoda_star if star else vcoda, FileStore(df), m, k, eps)


def timed(fn: Callable, *args, **kw) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return time.perf_counter() - t0, out


def spark_session():
    """A local Spark session (``SPARK_MASTER``, default ``local[*]``;
    ``SPARK_DRIVER_MEM``, default 8g). pyspark is imported only here."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


# ------------------------------------------------------------------ tables


#: Table 4: the paper's Brinkhoff generator configuration
BRINKHOFF_PAPER = {
    "MaxTime": 25_000,
    "ObjBegin": 5_000,
    "data_space_width": 23_572,
    "data_space_height": 26_915,
    "number_of_nodes": 6_105,
    "number_of_edges": 7_035,
    "moving_objects": 2_505_000,
    "points": 122_014_762,
}


def table4_rows(size: str = "bench") -> list[dict]:
    """Table 4: the Brinkhoff property sheet, paper vs our generator."""
    _df, _truth, props = brinkhoff_like(scale=_SCALES["brinkhoff"][size])
    return [
        {"property": key, "paper": value, "generated": int(props[key])}
        for key, value in BRINKHOFF_PAPER.items()
    ]


def pruning_rows(
    ds: Dataset, *, ms=(3, 6, 9), n_k: int = 4, eps_factors=None, store_kind="file"
) -> dict:
    """Table 5 for one dataset: min/max points processed over the grid."""
    eps_factors = eps_factors or (0.5, 1.0, 2.0)
    processed = []
    for m in ms:
        for k in ds.k_grid(n_k):
            for f in eps_factors:
                _, res = run_k2hop(ds.df, store_kind, m, k, ds.eps_ref * f)
                processed.append(res.points_processed)
    total = ds.n_points
    return {
        "dataset": ds.name,
        "total_points": total,
        "min_processed": min(processed),
        "max_processed": max(processed),
        "min_pruning_pct": 100.0 * (1 - max(processed) / total),
        "max_pruning_pct": 100.0 * (1 - min(processed) / total),
    }


def markdown_table(rows: list[dict]) -> str:
    """Render dict rows as a GitHub markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0])
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append(
            "| "
            + " | ".join(
                f"{r[c]:.4g}" if isinstance(r[c], float) else str(r[c])
                for c in cols
            )
            + " |"
        )
    return "\n".join(out)


def _time_stores(row: dict, df: pd.DataFrame, m: int, k: int, eps: float,
                 *, counts: bool = True) -> dict:
    """Add ``k2-<kind>_s`` for every store to ``row``; with ``counts``
    also the run's ``pruning_pct`` and ``n_convoys`` (equal on every
    store), placed after the first store's time."""
    for kind in STORE_KINDS:
        sec, res = run_k2hop(df, kind, m, k, eps)
        row[f"k2-{kind}_s"] = sec
        if counts:
            row["pruning_pct"] = res.pruning_pct
            row["n_convoys"] = len(res.convoys)
    return row


def effect_k_rows(ds: Dataset, *, m: int = 3, n_k: int = 6, include_vcoda: bool = True) -> list[dict]:
    """Fig 7h/8a/8b (+7a/7b gains): runtime vs k per storage backend."""
    rows = []
    for k in ds.k_grid(n_k):
        row = _time_stores({"dataset": ds.name, "k": k}, ds.df, m, k, ds.eps_ref)
        if include_vcoda:
            row["vcoda_s"], _ = run_vcoda(ds.df, m, k, ds.eps_ref, star=False)
            row["vcoda*_s"], _ = run_vcoda(ds.df, m, k, ds.eps_ref, star=True)
            for kind in ("file", "rdbms"):
                row[f"gain_k2{kind}_over_vcoda*"] = row["vcoda*_s"] / max(row[f"k2-{kind}_s"], 1e-9)
        rows.append(row)
    return rows


def effect_m_rows(ds: Dataset, *, k: int | None = None, ms=(3, 6, 9), include_vcoda=True) -> list[dict]:
    """Fig 8c/8d/8e: runtime vs m."""
    k = k if k is not None else ds.k_grid(2)[1]
    rows = []
    for m in ms:
        row = _time_stores({"dataset": ds.name, "m": m, "k": k}, ds.df, m, k, ds.eps_ref)
        if include_vcoda:
            row["vcoda*_s"], _ = run_vcoda(ds.df, m, k, ds.eps_ref)
        rows.append(row)
    return rows


def effect_eps_rows(ds: Dataset, *, k: int | None = None, m: int = 3,
                    eps_factors=(0.5, 1.0, 2.0), include_vcoda=True) -> list[dict]:
    """Fig 8f/8g/8h: runtime vs eps (factors of the reference eps)."""
    k = k if k is not None else ds.k_grid(2)[1]
    rows = []
    for f in eps_factors:
        eps = ds.eps_ref * f
        row = _time_stores({"dataset": ds.name, "eps": eps, "m": m, "k": k}, ds.df, m, k, eps)
        if include_vcoda:
            row["vcoda*_s"], _ = run_vcoda(ds.df, m, k, eps)
        rows.append(row)
    return rows


def phase_rows(ds: Dataset, *, m: int = 3, n_k: int = 6, store_kind="lsmt") -> list[dict]:
    """Fig 8i: per-phase execution time of k2-LSMT across the k grid."""
    rows = []
    for k in ds.k_grid(n_k):
        _, res = run_k2hop(ds.df, store_kind, m, k, ds.eps_ref)
        row = {"dataset": ds.name, "k": k}
        row.update({p: round(s, 4) for p, s in res.phase_seconds.items()})
        rows.append(row)
    return rows


def prevalidation_rows(ds: Dataset, *, m: int = 3, n_k: int = 6) -> list[dict]:
    """Fig 8j: pre-validation convoy counts, k/2-hop vs VCoDA (PCCD)."""
    rows = []
    for k in ds.k_grid(n_k):
        store = FileStore(ds.df)
        res = k2hop(store, m, k, ds.eps_ref, do_validate=False)
        n_pccd = len(pccd(store, m, k, ds.eps_ref))
        rows.append(
            {
                "dataset": ds.name,
                "k": k,
                "k2_prevalidation": res.n_prevalidation,
                "vcoda_prevalidation": n_pccd,
            }
        )
    return rows


def convoy_count_rows(*, n_counts=(0, 2, 4, 8), store_kinds=("rdbms", "lsmt"),
                      seed: int = 70) -> list[dict]:
    """Fig 8k: runtime vs number of planted convoys (Trucks-shaped)."""
    rows = []
    for nc in n_counts:
        df, truth = convoy_scene(
            n_objects=90, n_timestamps=420, n_convoys=nc, convoy_size=4,
            convoy_len=80, area=30_000.0, eps=100.0, speed=300.0, seed=seed,
        )
        row: dict = {"n_planted": nc, "points": len(df)}
        for kind in store_kinds:
            sec, res = run_k2hop(df, kind, 3, 40, 100.0)
            row[f"k2-{kind}_s"] = sec
            row["n_convoys_found"] = len(res.convoys)
        rows.append(row)
    return rows


def scalability_rows(spark, *, size: str = "bench", m: int = 3,
                     include_vcoda=True) -> list[dict]:
    """Fig 8l: runtime vs dataset size: T-Drive-like at ¼×, ½×, 1× and
    2× the size's tdrive scale, with Spark k/2-hop's seconds and points
    read over a cached frame built before the timer, each scale's timed
    query after one untimed one on the same frame: that one starts the
    session's Python workers and pays the frame's one input check and
    re-rooting, so the timed query is a repeated one."""
    from repro.core.k2hop_spark import k2hop_spark

    rows = []
    for scale in [f * _SCALES["tdrive"][size] for f in (0.25, 0.5, 1, 2)]:
        df, _ = tdrive_like(scale=scale)
        k = max(4, int(0.14 * df.t.nunique()))
        row = _time_stores({"scale": scale, "points": len(df), "k": k},
                           df, m, k, 100.0, counts=False)
        if include_vcoda:
            row["vcoda*_s"], _ = run_vcoda(df, m, k, 100.0)
        sdf = spark.createDataFrame(df).cache()
        sdf.count()
        k2hop_spark(spark, sdf, m, k, 100.0)
        row["k2-spark_s"], res = timed(k2hop_spark, spark, sdf, m, k, 100.0)
        row["k2-spark_points"] = res.points_processed
        sdf.unpersist()
        rows.append(row)
    return rows


def gain_rows(spark, baseline: str, *, size: str = "bench", m: int = 3,
              names=DATASETS) -> list[dict]:
    """Fig 7d / 7g: sequential k/2-hop (1 core) vs ``baseline`` ("spare"
    or "dcm") on Spark local[*] (all cores). Gains >> 1 reproduce the
    paper's claim even though the baseline gets every core. The frame's
    one input check and re-rooting (``spark_input``) run before the
    timer, as perfbench and :func:`scalability_rows` keep them out of a
    timed query too."""
    from repro.core.spark_cluster import spark_input

    if baseline == "spare":
        from repro.baselines.spare import spare as miner
    elif baseline == "dcm":
        from repro.baselines.dcm import dcm as miner
    else:
        raise KeyError(baseline)

    rows = []
    for name in names:
        ds = dataset(name, size)
        k = ds.k_grid(2)[1]
        sdf = spark.createDataFrame(ds.df).repartition(64).cache()
        sdf.count()
        spark_input(sdf)
        sec, out = timed(miner, spark, sdf, m, k, ds.eps_ref)
        sec_k2, res = run_k2hop(ds.df, "file", m, k, ds.eps_ref)
        sdf.unpersist()
        rows.append(
            {
                "dataset": name,
                "k": k,
                f"{baseline}_s": sec,
                "k2-file_s": sec_k2,
                "gain": sec / max(sec_k2, 1e-9),
                f"{baseline}_n_convoys": len(out),
                "k2_n_convoys": len(res.convoys),
            }
        )
    return rows


def _each_dataset(rows_fn: Callable[[Dataset], list[dict]], names=DATASETS):
    """A table builder concatenating ``rows_fn`` over ``names``."""
    return lambda size: [r for n in names for r in rows_fn(dataset(n, size))]


#: the EXPERIMENTS.md tables by name; each builder takes the size
#: ("test" or "bench"), and the SPARK_TABLES ones a Spark session too
TABLES: dict[str, Callable[..., list[dict]]] = {
    "table4": table4_rows,
    "table5": lambda size: [pruning_rows(dataset(n, size)) for n in DATASETS],
    "effect_k": _each_dataset(effect_k_rows),
    "effect_m": _each_dataset(effect_m_rows),
    "effect_eps": _each_dataset(effect_eps_rows),
    "gain_spare": lambda size, spark: gain_rows(spark, "spare", size=size),
    "gain_dcm": lambda size, spark: gain_rows(spark, "dcm", size=size),
    "phases": lambda size: phase_rows(dataset("tdrive", size)),
    "prevalidation": _each_dataset(prevalidation_rows, ("trucks", "tdrive")),
    "convoy_count": lambda size: convoy_count_rows(
        n_counts=(0, 2, 4) if size == "test" else (0, 2, 4, 8)),
    "scalability": lambda size, spark: scalability_rows(spark, size=size),
}
SPARK_TABLES = {"gain_spare", "gain_dcm", "scalability"}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Print the EXPERIMENTS.md tables as markdown.",
    )
    parser.add_argument("--size", default="bench", choices=["test", "bench"])
    parser.add_argument("tables", nargs="*", metavar="TABLE",
                        help=f"one of {', '.join(TABLES)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [n for n in args.tables if n not in TABLES]
    if unknown:
        parser.error(f"unknown table {', '.join(unknown)}; valid names: {', '.join(TABLES)}")
    names = args.tables or list(TABLES)
    spark = spark_session() if SPARK_TABLES.intersection(names) else None
    try:
        for name in names:
            extra = (spark,) if name in SPARK_TABLES else ()
            rows = TABLES[name](args.size, *extra)
            print(f"## {name}\n\n{markdown_table(rows)}\n", flush=True)
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()

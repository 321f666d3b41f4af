"""Shared experiment harness for the paper's evaluation (Section 6).

Provides the dataset registry (the three scaled paper-dataset
substitutes with a per-dataset reference eps and k-grid), store
construction, and timed runners for every algorithm. ``jobs/*`` and
``benchmarks/*`` are thin wrappers over these so the numbers in
EXPERIMENTS.md are regenerable from one code path.

Parameter grids: the paper sweeps k ∈ {200..1200} on timelines of tens
of thousands of timestamps, m ∈ {3,6,9} and eps over ±10×. Our datasets
are scaled down (DESIGN.md §4), so k is swept over the same *fractions*
of the timeline the paper's grid covers, m over the same {3,6,9}, and
eps over {½×, 1×, 2×} of the generator's reference eps (±10× collapses
our smaller scenes into one blob / all noise; the ½–2× band spans the
same qualitative regimes: more clusters ↔ fewer clusters).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.baselines.cmc import pccd
from repro.baselines.vcoda import vcoda, vcoda_star
from repro.core.k2hop import K2HopResult, k2hop
from repro.stores import FileStore, LSMTStore, MeteredStore, RDBMSStore
from repro.synth_data import brinkhoff_like, tdrive_like, trucks_like


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
    store = make_store(store_kind, df)
    try:
        t0 = time.perf_counter()
        res = k2hop(MeteredStore(store), m, k, eps)
        return time.perf_counter() - t0, res
    finally:
        if hasattr(store, "close"):  # a FileStore holds nothing to release
            store.close()


def run_vcoda(
    df: pd.DataFrame, m: int, k: int, eps: float, *, star: bool = True
) -> tuple[float, list]:
    """VCoDA(*) over an in-memory store (its original setting)."""
    store = FileStore(df)
    t0 = time.perf_counter()
    out = (vcoda_star if star else vcoda)(store, m, k, eps)
    return time.perf_counter() - t0, out


def timed(fn: Callable, *args, **kw) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return time.perf_counter() - t0, out


# ------------------------------------------------------------------ tables


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


def effect_k_rows(ds: Dataset, *, m: int = 3, n_k: int = 6, include_vcoda: bool = True) -> list[dict]:
    """Fig 7h/8a/8b (+7a/7b gains): runtime vs k per storage backend."""
    rows = []
    for k in ds.k_grid(n_k):
        row: dict = {"dataset": ds.name, "k": k}
        for kind in STORE_KINDS:
            sec, res = run_k2hop(ds.df, kind, m, k, ds.eps_ref)
            row[f"k2-{kind}_s"] = sec
            row["pruning_pct"] = res.pruning_pct
            row["n_convoys"] = len(res.convoys)
        if include_vcoda:
            sec_naive, _ = run_vcoda(ds.df, m, k, ds.eps_ref, star=False)
            sec_star, _ = run_vcoda(ds.df, m, k, ds.eps_ref, star=True)
            row["vcoda_s"] = sec_naive
            row["vcoda*_s"] = sec_star
            row["gain_k2file_over_vcoda*"] = sec_star / max(row["k2-file_s"], 1e-9)
            row["gain_k2rdbms_over_vcoda*"] = sec_star / max(row["k2-rdbms_s"], 1e-9)
        rows.append(row)
    return rows


def effect_m_rows(ds: Dataset, *, k: int | None = None, ms=(3, 6, 9), include_vcoda=True) -> list[dict]:
    """Fig 8c/8d/8e: runtime vs m."""
    k = k if k is not None else ds.k_grid(2)[1]
    rows = []
    for m in ms:
        row: dict = {"dataset": ds.name, "m": m, "k": k}
        for kind in STORE_KINDS:
            sec, res = run_k2hop(ds.df, kind, m, k, ds.eps_ref)
            row[f"k2-{kind}_s"] = sec
            row["pruning_pct"] = res.pruning_pct
            row["n_convoys"] = len(res.convoys)
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
        row: dict = {"dataset": ds.name, "eps": eps, "m": m, "k": k}
        for kind in STORE_KINDS:
            sec, res = run_k2hop(ds.df, kind, m, k, eps)
            row[f"k2-{kind}_s"] = sec
            row["pruning_pct"] = res.pruning_pct
            row["n_convoys"] = len(res.convoys)
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


def convoy_count_rows(*, n_counts=(0, 2, 4, 8), size_hint: str = "bench",
                      store_kinds=("rdbms", "lsmt"), seed: int = 70) -> list[dict]:
    """Fig 8k: runtime vs number of planted convoys (Trucks-shaped)."""
    from repro.synth_data import convoy_scene

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


def scalability_rows(*, m: int = 3, include_vcoda=True) -> list[dict]:
    """Fig 8l: runtime vs dataset size (growing T-Drive-like scales)."""
    from repro.synth_data import tdrive_like

    rows = []
    for scale in (0.005, 0.01, 0.02, 0.04):
        df, _ = tdrive_like(scale=scale)
        n_t = int(df.t.nunique())
        k = max(4, int(0.14 * n_t))
        row: dict = {"scale": scale, "points": len(df), "k": k}
        for kind in STORE_KINDS:
            sec, res = run_k2hop(df, kind, m, k, 100.0)
            row[f"k2-{kind}_s"] = sec
        if include_vcoda:
            row["vcoda*_s"], _ = run_vcoda(df, m, k, 100.0)
        rows.append(row)
    return rows


def spare_gain_rows(spark, *, size: str = "bench", m: int = 3,
                    names=("trucks", "tdrive", "brinkhoff")) -> list[dict]:
    """Fig 7d (single machine): k/2-hop (sequential, 1 core) vs SPARE
    (Spark, local[*] = all cores). Gains >> 1 reproduce the paper's
    claim even though SPARE gets every core."""
    from repro.baselines.spare import spare

    rows = []
    for name in names:
        ds = dataset(name, size)
        k = ds.k_grid(2)[1]
        sdf = spark.createDataFrame(ds.df).repartition(64).cache()
        sdf.count()
        sec_sp, out_sp = timed(spare, spark, sdf, m, k, ds.eps_ref)
        sec_k2, res = run_k2hop(ds.df, "file", m, k, ds.eps_ref)
        sdf.unpersist()
        rows.append(
            {
                "dataset": name,
                "k": k,
                "spare_s": sec_sp,
                "k2-file_s": sec_k2,
                "gain": sec_sp / max(sec_k2, 1e-9),
                "spare_n_convoys": len(out_sp),
                "k2_n_convoys": len(res.convoys),
            }
        )
    return rows


def dcm_gain_rows(spark, *, size: str = "bench", m: int = 3,
                  names=("trucks", "tdrive", "brinkhoff")) -> list[dict]:
    """Fig 7g: k/2-hop (sequential) vs DCM (Spark, local[*])."""
    from repro.baselines.dcm import dcm

    rows = []
    for name in names:
        ds = dataset(name, size)
        k = ds.k_grid(2)[1]
        sdf = spark.createDataFrame(ds.df).repartition(64).cache()
        sdf.count()
        sec_dcm, out_dcm = timed(dcm, spark, sdf, m, k, ds.eps_ref)
        sec_k2, res = run_k2hop(ds.df, "file", m, k, ds.eps_ref)
        sdf.unpersist()
        rows.append(
            {
                "dataset": name,
                "k": k,
                "dcm_s": sec_dcm,
                "k2-file_s": sec_k2,
                "gain": sec_dcm / max(sec_k2, 1e-9),
                "dcm_n_convoys": len(out_dcm),
                "k2_n_convoys": len(res.convoys),
            }
        )
    return rows

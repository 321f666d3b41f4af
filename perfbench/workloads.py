"""The benchmark's workloads: a dataset, a store or executor, and a query list.

Datasets are the EXPERIMENTS.md ``bench`` sizes of the synthetic
substitutes, generated from the workload seed:

* tdrive: ``tdrive_like(scale=0.02)``, ~493 k points, 396 timestamps,
  ~1 245 points per snapshot (large snapshots: clustering dominates);
* trucks: ``trucks_like(scale=0.1)``, ~36.5 k points, 87 objects
  (small snapshots: per-call store cost dominates).

The query lists follow EXPERIMENTS.md Table 5: m ∈ {3, 6, 9} × the first
four k of the dataset's k grid × eps ∈ {50, 100, 200}. The LSMT and Spark
workloads answer a four-query slice of it, m ∈ {3, 9} × the first and third
k at eps = 100, because one of their queries costs seconds (LSMT: a
``total_points`` rescan per query; Spark: 8–17 jobs per query) and every
run has to fit the benchmark's time budget.

BENCHMARK.json lists tdrive-file, trucks-rdbms and tdrive-spark. tdrive-lsmt
runs the same way by hand; it is left out of the list because its three
~4 s row-by-row builds per run do not fit the time budget of the listed
runs next to the others.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd

from repro.experiments import Dataset
from repro.synth_data import tdrive_like, trucks_like

Query = tuple[int, int, float]  # (m, k, eps)

#: dataset → (generator, scale, default seed, reference eps)
DATASETS = {
    "tdrive": (tdrive_like, 0.02, 11, 100.0),
    "trucks": (trucks_like, 0.1, 7, 100.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    backend: str  # a store kind of repro.experiments.make_store, or "spark"
    ms: tuple[int, ...]
    k_index: tuple[int, ...]  # positions in the dataset's k grid
    eps_factors: tuple[float, ...]  # multiples of the reference eps
    why: str

    @property
    def default_seed(self) -> int:
        return DATASETS[self.dataset][2]

    def make_data(self, seed: int) -> pd.DataFrame:
        gen, scale, _seed, _eps = DATASETS[self.dataset]
        df, _truth = gen(scale=scale, seed=seed)
        return df

    def queries(self, df: pd.DataFrame) -> list[Query]:
        eps_ref = DATASETS[self.dataset][3]
        ds = Dataset(self.dataset, df, [], eps_ref, int(df["t"].nunique()))
        grid = ds.k_grid(4)
        return [
            (m, grid[i], eps_ref * f)
            for m in self.ms
            for i in self.k_index
            for f in self.eps_factors
        ]


_TABLE5 = dict(ms=(3, 6, 9), k_index=(0, 1, 2, 3), eps_factors=(0.5, 1.0, 2.0))
_SLICE = dict(ms=(3, 9), k_index=(0, 2), eps_factors=(1.0,))

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "tdrive-file", "tdrive", "file", **_TABLE5,
            why="large snapshots in memory: DBSCAN of benchmark snapshots is most of the "
            "time and the store is a few percent, so clustering changes show here and "
            "store changes should not",
        ),
        Workload(
            "trucks-rdbms", "trucks", "rdbms", **_TABLE5,
            why="small snapshots on DuckDB: thousands of point and snapshot queries are "
            "most of the time, so the store read path shows, and small-n clustering must "
            "not slow",
        ),
        Workload(
            "tdrive-lsmt", "tdrive", "lsmt", **_SLICE,
            why="LSM-tree store: row-by-row build in set-up, SSTable range scans, and "
            "total_points rescans that pruning_pct triggers in every query",
        ),
        Workload(
            "tdrive-spark", "tdrive", "spark", **_SLICE,
            why="k2hop_spark over a cached DataFrame in local mode: the only workload "
            "that measures the Spark executor, its jobs and driver collects",
        ),
    ]
}

"""The k/2-hop convoy miner (paper Algorithm 1): one phase sequence, two
executors.

:func:`run_phases` runs the phases in order:

1. cluster the **benchmark snapshots** (every ⌊k/2⌋-th timestamp);
2. intersect adjacent benchmark cluster sets → **candidate clusters**;
3. **HWMT** per hop-window → 1st-order spanning convoys;
4. **DCM-merge** → maximal spanning convoys;
5. **extend** right then left → semi-connected candidates (≥ k long);
6. **validate** (restricted re-mining) → maximal FC convoys.

Phases 1 and 3 are embarrassingly parallel (per snapshot, per
hop-window), so an executor supplies only those two maps plus the store
that extension and validation read. :func:`k2hop` is the sequential
executor over a :class:`TrajectoryStore`; ``core/k2hop_spark.py`` runs
the two maps as Spark jobs.

Every phase is timed, and when the store is a :class:`MeteredStore` the
point reads are attributed per phase — together these produce the
paper's Table 5 (pruning) and Fig. 8i (phase breakdown) numbers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.benchmarks import (
    benchmark_cluster_sets,
    benchmark_points,
    candidate_clusters,
    hop_windows,
)
from repro.core.convoy import Convoy
from repro.core.extend import extend_left, extend_right
from repro.core.hwmt import hwmt
from repro.core.merge import dcm_merge
from repro.core.validate import validate
from repro.stores.base import TrajectoryStore
from repro.stores.metered import MeteredStore

#: benchmark points → {b: (m,eps)-clusters of snapshot b}, for every b
ClusterMap = Callable[[list[int]], dict[int, list[frozenset[int]]]]
#: (hop-windows, candidate clusters per window) → spanning convoys per window
WindowMap = Callable[
    [list[tuple[int, int]], list[list[frozenset[int]]]], list[list[Convoy]]
]


@dataclass
class K2HopResult:
    """Mining output plus per-phase instrumentation."""

    convoys: list[Convoy]
    phase_seconds: dict[str, float] = field(default_factory=dict)
    points_processed: int = 0
    pruning_pct: float = 0.0
    n_spanning: int = 0
    n_maximal_spanning: int = 0
    n_prevalidation: int = 0

    @property
    def points_scanned(self) -> int:
        """``points_processed`` under the name Spark results first used."""
        return self.points_processed


def run_phases(
    time_range: tuple[int, int],
    cluster_snapshots: ClusterMap,
    mine_windows: WindowMap,
    extension_store: Callable[[list[Convoy]], TrajectoryStore],
    m: int,
    k: int,
    eps: float,
    *,
    do_validate: bool = True,
    set_phase: Callable[[str], None] | None = None,
) -> K2HopResult:
    """Algorithm 1 over the dataset span ``time_range`` = (Ts, Te).

    ``extension_store`` maps the maximal spanning convoys to the store
    that extension and validation read. ``set_phase`` is told each phase
    name as it starts, so a metered store can attribute its reads.
    Point counts are the executor's to fill in.
    """
    times: dict[str, float] = {}

    def phase(name: str):
        if set_phase is not None:
            set_phase(name)
        times[name] = time.perf_counter()
        return name

    def done(name: str):
        times[name] = time.perf_counter() - times[name]

    p = phase("benchmark")
    bpts = benchmark_points(*time_range, k)
    csets = cluster_snapshots(bpts)
    done(p)

    p = phase("candidate")
    windows = hop_windows(bpts)
    ccs = [candidate_clusters(csets[a], csets[b], m) for a, b in windows]
    done(p)

    p = phase("hwmt")
    spanning = mine_windows(windows, ccs)
    n_spanning = sum(len(s) for s in spanning)
    done(p)

    p = phase("merge")
    merged = dcm_merge(spanning, m)
    done(p)

    p = phase("extend-right")
    store = extension_store(merged)
    right = extend_right(store, merged, m, eps)
    done(p)

    p = phase("extend-left")
    extended = [v for v in extend_left(store, right, m, eps) if v.length >= k]
    done(p)

    if do_validate:
        p = phase("validation")
        convoys = validate(store, extended, m, k, eps)
        done(p)
    else:
        convoys = extended

    return K2HopResult(
        convoys=convoys,
        phase_seconds=times,
        n_spanning=n_spanning,
        n_maximal_spanning=len(merged),
        n_prevalidation=len(extended),
    )


def k2hop(
    store: TrajectoryStore,
    m: int,
    k: int,
    eps: float,
    *,
    do_validate: bool = True,
) -> K2HopResult:
    """Mine all maximal FC (m,eps)-convoys of length ≥ k.

    ``do_validate=False`` stops after extension, returning the
    *semi-connected* candidates — the pre-validation set Fig. 8j counts.
    """
    metered = store if isinstance(store, MeteredStore) else None
    # These maps, like run_phases, look the phase functions up in this
    # module's globals when they run, so a wrapper set on the module by
    # name (perfbench/tracing.py) sees every call.
    res = run_phases(
        store.time_range(),
        lambda bpts: benchmark_cluster_sets(store, bpts, m, eps),
        lambda windows, ccs: [
            hwmt(store, w, cc, m, eps) if cc else [] for w, cc in zip(windows, ccs)
        ],
        lambda merged: store,
        m,
        k,
        eps,
        do_validate=do_validate,
        set_phase=metered.set_phase if metered else None,
    )
    if metered is not None:
        res.points_processed = metered.points_processed
        res.pruning_pct = metered.pruning_pct
    return res

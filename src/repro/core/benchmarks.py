"""Benchmark points, hop-windows and candidate clusters (paper §4.1–4.2).

Benchmark points are every ⌊k/2⌋-th timestamp starting **at Ts**:
``b_i = Ts + i·h`` with ``h = ⌊k/2⌋``. Algorithm 1 line 1 literally
writes ``b_i = i·⌊k/2⌋`` from i = 1, but starting at ``Ts + h`` breaks
Lemma 3 at the dataset edge: for even k, a convoy living exactly on
``[Ts, Ts+k−1]`` would contain only the single benchmark point
``Ts + h`` followed by ``Ts + 2h = Ts + k ∉ L``. Anchoring ``b_0 = Ts``
restores the guarantee: any window of length k contains two consecutive
multiples of h ≤ k/2 (property-tested in tests/test_benchmarks.py).

The *candidate clusters* for hop-window ``H_i`` are the pairwise
intersections of the benchmark cluster sets at its two endpoints, kept
when they still have ≥ m members (Lemma 5):

    CC_i = { c ∩ c' | c ∈ C_i, c' ∈ C_{i+1}, |c ∩ c'| ≥ m }

Clusters at one timestamp are disjoint, so the intersections are
mutually disjoint — no dedup is needed.
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import meps_clusters
from repro.stores.base import TrajectoryStore


def hop_length(k: int) -> int:
    """⌊k/2⌋, the benchmark-point spacing. Requires k ≥ 2."""
    if k < 2:
        raise ValueError(f"k must be >= 2 (got {k}): with k=1 every "
                         "single cluster is a convoy and h=⌊k/2⌋=0")
    return k // 2


def benchmark_points(ts: int, te: int, k: int) -> list[int]:
    """All benchmark points Ts, Ts+h, Ts+2h, … ≤ Te."""
    h = hop_length(k)
    return list(range(ts, te + 1, h))


def hop_windows(bpts: list[int]) -> list[tuple[int, int]]:
    """Consecutive benchmark-point pairs (b_i, b_{i+1}) bounding windows.

    The window's *interior* timestamps are (b_i, b_{i+1}) exclusive; the
    endpoints are the benchmark points themselves.
    """
    return list(zip(bpts, bpts[1:]))


def benchmark_cluster_sets(
    store: TrajectoryStore, bpts: list[int], m: int, eps: float
) -> dict[int, list[frozenset[int]]]:
    """Fully cluster each benchmark snapshot → {b_i: [(m,eps)-clusters]}.

    All the snapshots are read in one store call and clustered in one
    call, one segment per snapshot."""
    keys, xy = store.snapshot(bpts)
    sizes = np.searchsorted(keys[:, 0], bpts, "right") - np.searchsorted(keys[:, 0], bpts, "left")
    return dict(zip(bpts, meps_clusters(keys[:, 1], xy, m, eps, sizes)))


def candidate_clusters(
    ci: list[frozenset[int]], ci1: list[frozenset[int]], m: int
) -> list[frozenset[int]]:
    """Set-wise intersection of two benchmark cluster sets (Lemma 5)."""
    out = []
    for c in ci:
        for c2 in ci1:
            inter = c & c2
            if len(inter) >= m:
                out.append(inter)
    return out

"""Point-read metering — the instrument behind Table 5.

Wraps any :class:`TrajectoryStore` and counts how many points each
algorithm phase fetched. The paper's "points processed" is the number of
points the algorithm reads (benchmark snapshot scans + HWMT / extension
/ validation point queries); pruning % = 1 − processed / total.
"""
from __future__ import annotations

from collections import Counter
from typing import Collection, Sequence

import numpy as np

from repro.stores.base import TrajectoryStore


class MeteredStore:
    """Delegating store that counts points returned, bucketed by phase.

    A batched read returns each point once, so a point two restrictions
    of one call share counts once."""

    def __init__(self, inner: TrajectoryStore):
        self._inner = inner
        self.reads: Counter[str] = Counter()
        self._phase = "other"

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent reads to ``phase`` (e.g. 'hwmt')."""
        self._phase = phase

    # ------------------------------------------------ delegated interface
    def time_range(self) -> tuple[int, int]:
        return self._inner.time_range()

    def snapshot(self, t: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        keys, xy = self._inner.snapshot(t)
        self.reads[self._phase] += len(keys)
        return keys, xy

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        keys, xy = self._inner.points(t, oids)
        self.reads[self._phase] += len(keys)
        return keys, xy

    def total_points(self) -> int:
        return self._inner.total_points()

    # ------------------------------------------------------------ metrics
    @property
    def points_processed(self) -> int:
        """Total points fetched across all phases (with multiplicity)."""
        return sum(self.reads.values())

    @property
    def pruning_pct(self) -> float:
        """Fraction of the dataset the algorithm never touched, in %."""
        total = self.total_points()
        return 100.0 * (1.0 - self.points_processed / total) if total else 0.0

"""In-memory flat-file store (the paper's ``k2-File`` variant).

Models loading the whole flat file into memory once, as one run sorted
by (t, oid) (:mod:`repro.stores.base`): a read takes one binary-searched
slice per timestamp, and a point read filters each to the wanted oids. Fast when the dataset
fits in RAM, which is exactly the regime where the paper finds k2-File
competitive (Trucks dataset).
"""
from __future__ import annotations

from typing import Collection, Sequence

import numpy as np
import pandas as pd

from repro.stores.base import columns, read, to_run, validate_frame


class FileStore:
    """Trajectory store over one in-memory run."""

    def __init__(self, df: pd.DataFrame):
        self._run = to_run(validate_frame(df))
        t = self._run["t"]
        self._range = (int(t[0]), int(t[-1])) if len(t) else (0, -1)

    def time_range(self) -> tuple[int, int]:
        return self._range

    def snapshot(self, t: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return columns(read(self._run, t))

    def points(
        self, t: Sequence[int], oids: Sequence[Collection[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        return columns(read(self._run, t, oids))

    def total_points(self) -> int:
        return len(self._run)

    def close(self) -> None:
        """Nothing to release (the run is plain memory); here so every
        store can be closed the same way."""

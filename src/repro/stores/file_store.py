"""In-memory flat-file store (the paper's ``k2-File`` variant).

Models loading the whole flat file into memory once, as one run sorted
by (t, oid) (:mod:`repro.stores.base`): a snapshot is one binary-searched
slice, a point read filters it to the wanted oids. Fast when the dataset
fits in RAM, which is exactly the regime where the paper finds k2-File
competitive (Trucks dataset).
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd

from repro.stores.base import read, to_run, validate_frame


class FileStore:
    """Trajectory store over one in-memory run."""

    def __init__(self, df: pd.DataFrame, *, time_range: tuple[int, int] | None = None):
        """``time_range`` overrides the (Ts, Te) derived from the rows —
        needed when the frame is a pruned slice of a larger dataset but
        algorithms must still see the full dataset's time span."""
        self._run = to_run(validate_frame(df))
        t = self._run["t"]
        self._range = time_range or ((int(t[0]), int(t[-1])) if len(t) else (0, -1))

    def time_range(self) -> tuple[int, int]:
        return self._range

    def snapshot(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        run = read(self._run, t)
        return run["oid"], run["xy"]

    def points(self, t: int, oids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        run = read(self._run, t, oids)
        return run["oid"], run["xy"]

    def total_points(self) -> int:
        return len(self._run)

    def close(self) -> None:
        """Nothing to release (the run is plain memory); here so every
        store can be closed the same way."""

"""Persistent storage substrates for trajectory data (paper Section 5).

k/2-hop needs exactly two access paths, both batched:

1. full snapshot scans at (many) benchmark timestamps, and
2. (t, oid) point reads for (many) candidate object sets, each at its
   own timestamp.

Each backend realizes both:

* :class:`~repro.stores.file_store.FileStore` — whole dataset in memory
  (the paper's ``k2-File`` flat-file variant);
* :class:`~repro.stores.rdbms_store.RDBMSStore` — DuckDB with an index on
  (t, oid) (the paper's ``k2-RDBMS``);
* :class:`~repro.stores.lsmt_store.LSMTStore` — a from-scratch
  log-structured merge-tree over the local filesystem (``k2-LSMT``).

:class:`~repro.stores.metered.MeteredStore` wraps any backend and counts
points fetched per algorithm phase — the Table 5 pruning metric.
"""
from repro.stores.base import TrajectoryStore
from repro.stores.file_store import FileStore
from repro.stores.metered import MeteredStore
from repro.stores.rdbms_store import RDBMSStore
from repro.stores.lsmt_store import LSMTStore

__all__ = ["TrajectoryStore", "FileStore", "MeteredStore", "RDBMSStore", "LSMTStore"]

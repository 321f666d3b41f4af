"""Outside-in tracing of one sweep: spans around each layer's entry points.

Nothing in the program is edited. For the traced sweep only, ``Tracer.patched``
replaces module-level names with timing wrappers and restores them on exit,
and ``TracedStore`` sits between ``MeteredStore`` and the real store:

* stores: the four ``TrajectoryStore`` calls, as ``store.<call>``;
* clustering: ``meps_clusters`` as imported by ``core.benchmarks``
  (snapshot), ``core.hwmt`` (recluster, also used by extension) and
  ``core.sweep`` (validate);
* phases: the names ``core.k2hop`` calls, as ``phase.<name>``;
* spark: the driver-side names ``core.k2hop_spark`` imports, as
  ``spark.<part>``. ``hwmt`` and ``FileStore`` are left alone there: the
  per-window closure that ships them to Python workers pickles whatever
  the module name points at, and the workers cannot import this package.

A span is ``(name, start, end, parent, query, n)``; ``n`` counts the rows
returned, points clustered or convoys produced. Spans stay in memory and
are written out once the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

#: (module, name, span name, counter of the call's work)
_CLUSTERING_PATCHES = [
    ("repro.core.benchmarks", "meps_clusters", "clustering.snapshot", "oids"),
    ("repro.core.hwmt", "meps_clusters", "clustering.recluster", "oids"),
    ("repro.core.sweep", "meps_clusters", "clustering.validate", "oids"),
]
_SEQUENTIAL_PATCHES = _CLUSTERING_PATCHES + [
    ("repro.core.k2hop", "benchmark_cluster_sets", "phase.benchmark", "len"),
    ("repro.core.k2hop", "candidate_clusters", "phase.candidate", "len"),
    ("repro.core.k2hop", "hwmt", "phase.hwmt", "len"),
    ("repro.core.k2hop", "dcm_merge", "phase.merge", "len"),
    ("repro.core.k2hop", "extend_right", "phase.extend_right", "len"),
    ("repro.core.k2hop", "extend_left", "phase.extend_left", "len"),
    ("repro.core.k2hop", "validate", "phase.validate", "len"),
]
_SPARK_PATCHES = _CLUSTERING_PATCHES + [
    ("repro.core.k2hop_spark", "snapshot_clusters", "spark.cluster_sets", None),
    ("repro.core.k2hop_spark", "collect_cluster_sets", "spark.cluster_sets", None),
    ("repro.core.k2hop_spark", "dcm_merge", "spark.merge", "len"),
    ("repro.core.k2hop_spark", "extend", "spark.extend", "len"),
    ("repro.core.k2hop_spark", "validate", "spark.validate", "len"),
]

PHASES = ["benchmark", "candidate", "hwmt", "merge", "extend_right", "extend_left", "validate"]
#: MeteredStore phase label → benchmark phase name
METERED_PHASES = {
    "benchmark": "benchmark",
    "hwmt": "hwmt",
    "extend-right": "extend_right",
    "extend-left": "extend_left",
    "validation": "validate",
}
SPARK_PARTS = ["cluster_sets", "merge", "extend", "validate"]
_STORE_CALLS = ["snapshot", "points", "time_range", "total_points"]


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for call in _STORE_CALLS:
        out.append((f"store.{call}.calls", "count", "lower"))
        if call in ("snapshot", "points"):
            out.append((f"store.{call}.rows", "points", "lower"))
        out.append((f"store.{call}.s", "s", "lower"))
    out.append(("store.lsmt.runs", "count", "lower"))
    for split in ("snapshot", "recluster", "validate"):
        out += [(f"clustering.{split}.calls", "count", "lower"),
                (f"clustering.{split}.points", "points", "lower"),
                (f"clustering.{split}.s", "s", "lower")]
    for phase in PHASES:
        out += [(f"phase.{phase}.s", "s", "lower"), (f"phase.{phase}.self_s", "s", "lower")]
    out += [
        ("phase.candidate.out", "count", "lower"),
        ("phase.hwmt.windows", "count", "lower"),
        ("phase.hwmt.spanning", "count", "lower"),
        ("phase.hwmt.useful", "fraction", "higher"),
        ("phase.merge.out", "count", "lower"),
        ("phase.extend.out", "count", "lower"),
        ("phase.validate.out", "count", "higher"),
    ]
    out += [(f"points_read.{p}", "points", "lower") for p in METERED_PHASES.values()]
    out += [("spark.jobs", "count", "lower"), ("spark.tasks", "count", "lower")]
    out += [(f"spark.{p}.s", "s", "lower") for p in [*SPARK_PARTS, "other"]]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


PER_LAYER = _per_layer()
LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


class Tracer:
    """Collects spans of one traced sweep on the calling thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Time a block; the yielded one-item list receives its count."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        n = [0]
        t0 = perf_counter()
        try:
            yield n
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.query, n[0])

    def wrap(self, name: str, fn: Callable, count: str | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kw):
            with self.span(name) as n:
                out = fn(*args, **kw)
                if count == "len":
                    n[0] = len(out)
                elif count == "oids":
                    n[0] = len(args[0])
                return out

        return traced

    @contextmanager
    def patched(self, spark: bool) -> Iterator[None]:
        """Install the wrappers for the duration of the block only."""
        saved = []
        try:
            for mod_name, attr, span, count in _SPARK_PATCHES if spark else _SEQUENTIAL_PATCHES:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span, original, count))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        keys = ["name", "start", "end", "parent", "query", "n"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    # ------------------------------------------------------------ metrics
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded."""
        calls: dict[str, int] = defaultdict(int)
        work: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        child_s: dict[int, float] = defaultdict(float)
        nonzero: dict[str, int] = defaultdict(int)
        for name, t0, t1, parent, _q, n in self.spans:
            calls[name] += 1
            work[name] += n
            secs[name] += t1 - t0
            nonzero[name] += n > 0
            if parent is not None:
                child_s[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child_s[i]

        out: dict[str, float] = {}
        for call in _STORE_CALLS:
            key = f"store.{call}"
            out[f"{key}.calls"] = calls[key]
            if call in ("snapshot", "points"):
                out[f"{key}.rows"] = work[key]
            out[f"{key}.s"] = secs[key]
        for split in ("snapshot", "recluster", "validate"):
            key = f"clustering.{split}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.points"] = work[key]
            out[f"{key}.s"] = secs[key]
        for phase in PHASES:
            key = f"phase.{phase}"
            out[f"{key}.s"] = secs[key]
            out[f"{key}.self_s"] = self_s[key]
        out["phase.candidate.out"] = work["phase.candidate"]
        out["phase.hwmt.windows"] = calls["phase.hwmt"]
        out["phase.hwmt.spanning"] = work["phase.hwmt"]
        out["phase.hwmt.useful"] = (
            nonzero["phase.hwmt"] / calls["phase.hwmt"] if calls["phase.hwmt"] else 0.0
        )
        out["phase.merge.out"] = work["phase.merge"]
        out["phase.extend.out"] = work["phase.extend_left"]
        out["phase.validate.out"] = work["phase.validate"]
        for part in SPARK_PARTS:
            out[f"spark.{part}.s"] = secs[f"spark.{part}"]
        if any(name.startswith("spark.") for name in calls):
            out["spark.other.s"] = self_s["query"]
        return out


class TracedStore:
    """Timing proxy between ``MeteredStore`` and the real store."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def time_range(self):
        with self._tracer.span("store.time_range"):
            return self._inner.time_range()

    def snapshot(self, t):
        with self._tracer.span("store.snapshot") as n:
            oids, xy = self._inner.snapshot(t)
            n[0] = len(oids)
        return oids, xy

    def points(self, t, oids):
        with self._tracer.span("store.points") as n:
            got, xy = self._inner.points(t, oids)
            n[0] = len(got)
        return got, xy

    def total_points(self):
        with self._tracer.span("store.total_points"):
            return self._inner.total_points()

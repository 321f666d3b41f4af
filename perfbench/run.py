"""Convoy-mining benchmark: a closed loop of k/2-hop queries on a loaded store.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tdrive-file --seed 11 --seconds 32 --trace 0

One client in one process issues each query only after the previous one
returned. A run generates the workload's dataset from ``--seed``, computes
the expected convoys of every query (``reference.py``, outside the timed
region), builds the store at least three times and for at least two
seconds (Spark: sets up once), then answers the query list in whole sweeps
for up to ``--seconds``: a sweep starts only if it is likely to end in
time, and there is always at least one. The timed call is the one
``repro.experiments.run_k2hop`` makes,
``k2hop(MeteredStore(store), m, k, eps)``, or
``k2hop_spark(spark, cached_df, m, k, eps)``.

Every end-to-end metric in ``UNITS`` is printed with its unit; the result
line (``--trace 0``) carries those in ``END_TO_END``. With ``--trace 1`` the
run adds one traced sweep (``tracing.py``) and the result line carries the
per-layer metrics instead. Each run also writes a record with the machine,
commit and versions, and in trace mode its spans, to ``perfbench/out/``.
The last line of standard output is one JSON object. README.md describes
the workloads, metrics and measurements.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import spark_session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-up is repeated at least this often, and until this much time has passed
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

#: every end-to-end metric and its unit, in report order
UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "query_s.p50": "s",
    "query_s.p90": "s",
    "points_read": "points",
    "pruning_pct.min": "%",
    "failed_frac": "fraction",
    "peak_rss_mb": "MB",
}
#: the ones on the result line. The latency percentiles are printed only:
#: which query of the grid sits at p50 / p90 changes with the dataset seed,
#: so across seeds they spread wider than any bound (see README.md), and
#: failed_frac is 0 on a correct run, carried as failed / attempted.
END_TO_END = ["setup_s", "sweep_s", "points_read", "pruning_pct.min", "peak_rss_mb"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="dataset seed (default: tdrive 11, trucks 7)")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports repro

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    name = f"{args.workload}-seed{record['seed']}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    report(record)
    return 0


# ------------------------------------------------------------------- runs


def run(w, seed: int | None, seconds: float, trace: bool, scratch: Path) -> dict:
    from reference import expected_convoys

    seed = w.default_seed if seed is None else seed
    df = w.make_data(seed)
    queries = w.queries(df)
    expected = expected_convoys(df, queries)
    runner = SparkRunner(df, queries, scratch) if w.backend == "spark" else StoreRunner(w.backend, df)
    try:
        setup_s = runner.setup()
        # Whole sweeps, none started that would likely end past ``seconds``.
        sweeps = []
        t0 = perf_counter()
        while not sweeps or (perf_counter() - t0) * (len(sweeps) + 1) / len(sweeps) <= seconds:
            sweeps.append(timed_sweep(runner.query, queries))
        sweep_s = statistics.median(wall for wall, _ in sweeps)
        layers, problems = None, []
        if trace:
            layers, traced, wall = traced_sweep(runner, queries, OUT / f"{w.name}-seed{seed}-spans.json")
            layers["trace.overhead_s"] = wall - sweep_s
            problems = [
                f"{q}: traced run differs from untraced"
                for q, got, (_lat, res, _err) in zip(queries, traced, sweeps[0][1])
                if res is None or got != res[:2]
            ]
        rss_mb = peak_rss_mb()
    finally:
        runner.close()

    failures = []
    for _wall, results in sweeps:
        for q, (_lat, res, err) in zip(queries, results):
            if err is not None:
                failures.append(f"{q}: raised\n{err}")
            elif res[0] != expected[q]:
                failures.append(f"{q}: {len(res[0])} convoys, expected {len(expected[q])}")

    lat = [r[0] for _wall, results in sweeps for r in results]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    answered = [res for _lat, res, _err in sweeps[0][1] if res is not None]
    metrics = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "query_s.p50": statistics.median(lat),
        "query_s.p90": p90,
        "points_read": sum(res[1] for res in answered),
        "pruning_pct.min": min((res[2] for res in answered), default=0.0),
        "failed_frac": len(failures) / len(lat),
        "peak_rss_mb": rss_mb,
    }
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "env": environment(runner),
        "queries": [list(q) for q in queries],
        "sweeps": len(sweeps),
        "sweep_walls": [wall for wall, _ in sweeps],
        "latencies": [[r[0] for r in results] for _wall, results in sweeps],
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(x > p90 for x in lat),
        "convoys_per_query": [len(res[0]) if res else None for _l, res, _e in sweeps[0][1]],
        "points_per_query": [res[1] if res else None for _l, res, _e in sweeps[0][1]],
        "attempted": len(lat),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
    }


def timed_sweep(query, queries) -> tuple[float, list]:
    """Answer every query once, in order; results are checked afterwards."""
    results = []
    t0 = perf_counter()
    for q in queries:
        a = perf_counter()
        try:
            res, err = query(*q), None
        except Exception:  # a failed query is counted, the loop goes on
            res, err = None, traceback.format_exc()
        results.append((perf_counter() - a, res, err))
    return perf_counter() - t0, results


def traced_sweep(runner, queries, spans_path: Path) -> tuple[dict, list, float]:
    """One sweep with every layer wrapped → (per-layer metrics, results, wall s)."""
    from tracing import LAYER_UNITS, Tracer

    tracer = Tracer()
    results = []
    t0 = perf_counter()
    with tracer.patched(spark=isinstance(runner, SparkRunner)), runner.tracing():
        for i, q in enumerate(queries):
            tracer.query = i
            with tracer.span("query"):
                res = runner.query(*q, tracer=tracer)
            results.append(res[:2])
    wall = perf_counter() - t0
    layers = dict.fromkeys(LAYER_UNITS, 0)  # metrics a workload lacks read 0
    layers.update(tracer.layer_metrics())
    layers.update(runner.layer_counts())
    tracer.write(spans_path)
    return layers, results, wall


class StoreRunner:
    """Sequential k/2-hop against one of the three stores."""

    def __init__(self, kind: str, df):
        from collections import Counter

        from repro.core.k2hop import k2hop
        from repro.experiments import make_store
        from repro.stores import MeteredStore

        self.kind, self.df = kind, df
        self._k2hop, self._make, self._metered = k2hop, make_store, MeteredStore
        self.store = None
        self.reads = Counter()

    def setup(self) -> float:
        times: list[float] = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            self.close()
            t0 = perf_counter()
            self.store = self._make(self.kind, self.df)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def query(self, m, k, eps, tracer=None):
        store = self.store
        if tracer is not None:
            from tracing import TracedStore

            store = TracedStore(store, tracer)
        metered = self._metered(store)
        res = self._k2hop(metered, m, k, eps)
        if tracer is not None:
            self.reads += metered.reads
        return res.convoys, res.points_processed, res.pruning_pct

    def tracing(self):
        return nullcontext()

    def layer_counts(self) -> dict:
        from tracing import METERED_PHASES

        out = {f"points_read.{p}": self.reads[label] for label, p in METERED_PHASES.items()}
        out["store.lsmt.runs"] = getattr(self.store, "n_runs", 0)
        return out

    def close(self) -> None:
        close = getattr(self.store, "close", None)
        if close is not None:
            close()
        self.store = None

    def versions(self) -> dict:
        return {}


class SparkRunner:
    """k2hop_spark over a cached DataFrame in local mode."""

    def __init__(self, df, queries, scratch: Path):
        from repro.core.k2hop_spark import k2hop_spark

        self.df, self.queries, self.scratch = df, queries, scratch
        self._k2hop_spark = k2hop_spark
        self.spark = self.sdf = None

    def setup(self) -> float:
        t0 = perf_counter()
        self.spark = spark_session.start(SRC, self.scratch)
        self.sdf = self.spark.createDataFrame(self.df).cache()
        self.sdf.count()
        self.query(*self.queries[-1])  # unscored warm-up
        return perf_counter() - t0

    def query(self, m, k, eps, tracer=None):
        res = self._k2hop_spark(self.spark, self.sdf, m, k, eps)
        return res.convoys, res.points_scanned, res.pruning_pct

    @contextmanager
    def tracing(self):
        sc = self.spark.sparkContext
        sc.setJobGroup(spark_session.TRACE_GROUP, "traced sweep")
        try:
            yield
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)

    def layer_counts(self) -> dict:
        jobs, tasks = spark_session.job_counts(self.spark, spark_session.TRACE_GROUP)
        return {"spark.jobs": jobs, "spark.tasks": tasks}

    def close(self) -> None:
        if self.spark is not None:
            spark_session.stop(self.spark)
            self.spark = None

    def versions(self) -> dict:
        return {"spark_master": f"local[{spark_session.cores()}]"}


# ---------------------------------------------------------------- reporting


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant, in MB."""
    total_kb = 0
    for pid in [os.getpid(), *spark_session.descendants(os.getpid())]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def environment(runner) -> dict:
    import duckdb
    import numpy
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **runner.versions(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{len(record['queries'])} queries x {record['sweeps']} sweeps  "
          f"nproc {env['nproc']}  commit {env['commit'][:12]}")
    print("  " + "  ".join(f"{k} {v}" for k, v in env.items() if k not in ("nproc", "commit")))
    for name, unit in UNITS.items():
        print(f"  {name:<16} {record['metrics'][name]:>14.4f} {unit}")
    print(f"  failed {record['failed']} of {record['attempted']} queries; "
          f"query_s.p90 from {record['latency_samples']} samples, "
          f"{record['samples_beyond_p90']} beyond it")
    for f in record["failures"][:10] + record["problems"]:
        print(f"  FAILED {f}")
    if record["layers"] is None:
        metrics = {k: {"value": record["metrics"][k], "unit": UNITS[k]} for k in END_TO_END}
    else:
        from tracing import PER_LAYER

        layers = record["layers"]
        for name, unit, _better in PER_LAYER:
            print(f"  {name:<28} {layers[name]:>14.4f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())

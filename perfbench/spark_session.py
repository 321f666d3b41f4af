"""A local Spark session owned by one benchmark run, and its processes.

The session runs ``local[N]`` with N = min(4, nproc), the UI and console
progress off and logs at ERROR. Every directory Spark writes to is under
the run's scratch directory. Python workers import ``repro`` from the
checkout's ``src``, which is put on their ``PYTHONPATH`` because the
package is not installed.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

MAX_CORES = 4
DRIVER_MEMORY = "1g"
#: job group of the traced sweep, for the job and task counts
TRACE_GROUP = "perfbench-trace"


def cores() -> int:
    return max(1, min(MAX_CORES, os.cpu_count() or 1))


def start(src: Path, scratch: Path):
    """Launch the JVM and return a SparkSession."""
    n = cores()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    # Every JVM started from here (launcher and driver) keeps its temporary
    # files in the scratch directory and writes no hsperfdata under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        p for p in (os.environ.get("JAVA_TOOL_OPTIONS"),
                    f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}") if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{n}] --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(n))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def job_counts(spark, group: str) -> tuple[int, int]:
    """(jobs, completed tasks) of a job group, from the status tracker."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = 0
    for job in jobs:
        info = tracker.getJobInfo(job)
        for sid in info.stageIds if info else ():
            stage = tracker.getStageInfo(sid)
            tasks += stage.numCompletedTasks if stage else 0
    return len(jobs), tasks


def descendants(pid: int) -> list[int]:
    """Live descendant process ids of ``pid``, from /proc."""
    parent: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces, so split after ")".
        parent[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid]
    while frontier:
        kids = [p for p, pp in parent.items() if pp in frontier]
        out.extend(kids)
        frontier = kids
    return out


def stop(spark, timeout: float = 60.0) -> None:
    """Stop the session, end the JVM and wait until its workers have exited."""
    from pyspark import SparkContext

    procs = descendants(os.getpid())
    try:
        spark.stop()
    finally:
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            # The JVM exits when its stdin closes.
            gateway.proc.stdin.close()
            try:
                gateway.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                gateway.proc.kill()
                gateway.proc.wait()
            SparkContext._gateway = None
            SparkContext._jvm = None
        live = _wait_gone(procs, timeout)
        for p in live:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_gone(live, timeout)


def _wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Poll until none of ``pids`` is running; return those still running."""
    deadline = time.monotonic() + timeout
    live = pids
    while live and time.monotonic() < deadline:
        time.sleep(0.05)
        live = [p for p in live if Path(f"/proc/{p}").exists() and not _zombie(p)]
    return live


def _zombie(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False

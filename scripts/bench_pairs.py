"""Alternating before/after pairs of the benchmark, written to BENCH_<label>.json.

    python scripts/bench_pairs.py --label NAME [--base REV] [--pairs N] \\
        tdrive-file:11 tdrive-file:12 trucks-rdbms:7

For each ``workload:seed`` it runs ``perfbench/run.py``, unchanged and with
its own run length, N times on an export of ``--base`` (default ``HEAD``) and
N times on the working tree, alternating which side runs first, then one
traced run (``--trace 1``) per side. It writes ``BENCH_<label>.json`` at the repo root, or adds its entries
to an existing one, so workloads can be recorded one invocation at a time. The
file is rewritten after every pair, so an interrupted run keeps what it measured:

* per end-to-end metric of ``BENCHMARK.json``: each side's runs, median and
  quartiles (``statistics.quantiles(n=4)``), whether every run of that side
  gave the same value (``exact``: a claim resting on a count holds only if
  the count repeats), and how many pairs the change won and tied;
* per workload and seed: failed queries per side and the traced runs'
  per-layer metrics;
* each run that exits non-zero, under ``crashed``: its pair, side, exit code
  and the tail of its stderr. Its pair is left out of the metrics;
* ``nproc``, the machine and both commits (the working tree's is ``HEAD``,
  marked when it has uncommitted changes).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: lines of a crashed run's stderr kept in the record
STDERR_LINES = 20


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, without touching the checkout."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def perfbench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """One run's result line: ``correct``, ``attempted``, ``failed``, ``metrics``;
    for a run that exits non-zero, its ``exit`` code and ``stderr`` tail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        return {"exit": out.returncode, "stderr": out.stderr.splitlines()[-STDERR_LINES:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "n": len(runs),
            "exact": len(set(runs)) == 1}


def pairs_entry(runs: dict[str, list[dict]], first: list[str], metrics: dict[str, str]) -> dict:
    out = {}
    for name, better in metrics.items() if first else ():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        sign = 1 if better == "lower" else -1
        diffs = [sign * (p - c) for p, c in zip(vals["parent"], vals["change"])]
        out[name] = {
            "parent": summary(vals["parent"]),
            "change": summary(vals["change"]),
            "change_wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "pairs": len(diffs),
            "runs": vals,
        }
    return {
        "pairs": len(first),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "correct": all(r["correct"] for side in runs for r in runs[side]),
        "first_in_pair": first,
        "metrics": out,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD:SEED")
    ap.add_argument("--label", required=True)
    ap.add_argument("--base", default="HEAD", help="revision the working tree is compared with")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    metrics = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"workloads": {}, "traced": {}}
    dirty = " + uncommitted changes" if git("status", "--porcelain", "--untracked-files=no") else ""
    record.update({
        "label": args.label,
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "parent_commit": git("rev-parse", args.base),
        "change_commit": git("rev-parse", "HEAD") + dirty,
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0|1, "
                   "parent export and working tree alternating which runs first",
    })

    base = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        export(args.base, base)
        trees = {"parent": base, "change": ROOT}
        for spec in args.runs:
            workload, seed = spec.split(":")
            key = f"{workload} seed {seed}"
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            first, crashed = [], []
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {side: perfbench(trees[side], workload, int(seed), False) for side in order}
                bad = [{"pair": i, "side": side, **r} for side, r in pair.items() if "exit" in r]
                if bad:
                    crashed += bad
                else:
                    first.append(order[0])
                    for side in order:
                        runs[side].append(pair[side])
                print(key, i + 1, {s: r["metrics"]["sweep_s"]["value"] if "metrics" in r
                                   else f"exit {r['exit']}" for s, r in pair.items()},
                      file=sys.stderr, flush=True)
                record["workloads"][key] = {**pairs_entry(runs, first, metrics), "crashed": crashed}
                path.write_text(json.dumps(record, indent=1) + "\n")
            record["traced"][key] = {
                side: {k: v for k, v in perfbench(tree, workload, int(seed), True).items()
                       if k != "attempted"}
                for side, tree in trees.items()
            }
            path.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

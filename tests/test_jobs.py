"""The table driver at 'test' size: ``TABLES`` entries produce
well-formed rows with the paper's shape, the command line prints them
and rejects unknown names, and ``jobs/mine_convoys.py`` mines one query."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import SPARK_TABLES, TABLES, gain_rows, main, scalability_rows

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestJobRuns:
    def test_table4(self):
        rows = TABLES["table4"]("test")
        props = {r["property"]: r for r in rows}
        assert props["data_space_width"]["paper"] == props["data_space_width"]["generated"]
        assert props["points"]["generated"] > 1000

    def test_table5(self):
        rows = TABLES["table5"]("test")
        assert [r["dataset"] for r in rows] == ["trucks", "tdrive", "brinkhoff"]
        for r in rows:
            assert 0 < r["min_processed"] <= r["max_processed"] < r["total_points"]
            # The paper's headline: the overwhelming majority of points
            # are never touched, in the best case > 90 % even at our scale.
            assert r["max_pruning_pct"] > 90.0
            assert r["min_pruning_pct"] > 50.0

    def test_prevalidation(self):
        rows = TABLES["prevalidation"]("test")
        assert sorted({r["dataset"] for r in rows}) == ["tdrive", "trucks"]

    def test_phases(self):
        rows = TABLES["phases"]("test")
        assert all("hwmt" in r for r in rows)
        for r in rows:
            # HWMT or extension is among the costliest mining phases
            # (the paper's Fig 8i ordering; benchmark clustering aside).
            mining = {p: s for p, s in r.items() if p not in ("dataset", "k", "benchmark")}
            slowest = sorted(mining, key=mining.get, reverse=True)[:3]
            assert "hwmt" in slowest or "extend-right" in slowest

    def test_gain_dcm_single_dataset(self, spark):
        rows = gain_rows(spark, "dcm", size="test", names=("trucks",))
        assert rows[0]["dcm_n_convoys"] >= rows[0]["k2_n_convoys"] >= 0
        assert rows[0]["gain"] > 0

    def test_gain_spare_single_dataset(self, spark):
        rows = gain_rows(spark, "spare", size="test", names=("trucks",))
        assert rows[0]["gain"] > 0

    def test_scalability_spark_columns(self, spark):
        assert "scalability" in SPARK_TABLES
        rows = scalability_rows(spark, size="test", include_vcoda=False)
        for r in rows:
            assert r["k2-spark_s"] > 0
            assert 0 < r["k2-spark_points"] < r["points"]

    def test_mine_convoys_cli(self, capsys, monkeypatch):
        mod = _load("mine_convoys")
        monkeypatch.setattr(
            sys, "argv",
            ["mine_convoys.py", "--algo", "k2hop", "--dataset", "trucks", "--size", "test"],
        )
        mod.main()
        out = capsys.readouterr().out
        assert "convoys" in out


class TestCommandLine:
    def test_import_starts_no_spark(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys, repro.experiments; sys.exit('pyspark' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_prints_table(self, capsys):
        main(["--size", "test", "table4"])
        out = capsys.readouterr().out
        assert out.startswith("## table4\n\n| property | paper | generated |")
        assert "| points | 122014762 |" in out

    def test_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--size", "test", "table4", "table9"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "table9" in err
        assert all(name in err for name in TABLES)

"""Store substrate tests: FileStore / RDBMSStore / LSMTStore equivalence,
LSMT internals (flush/compaction), metering, the malformed-input
boundary, and DuckDB-oracle checks of the two access paths the paper's
Section 5 requires."""
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.stores import FileStore, LSMTStore, MeteredStore, RDBMSStore
from repro.synth_data import convoy_scene
from repro.testkit import EPS


def _frame(seed=0, n_obj=25, n_t=30, drop=0.2):
    g = np.random.default_rng(seed)
    tt, oo = np.meshgrid(np.arange(n_t), np.arange(n_obj), indexing="ij")
    df = pd.DataFrame(
        {
            "t": tt.ravel(),
            "oid": oo.ravel(),
            "x": g.random(n_t * n_obj) * 100,
            "y": g.random(n_t * n_obj) * 100,
        }
    )
    return df[g.random(len(df)) >= drop].reset_index(drop=True)


DF = _frame()


def _stores():
    return [
        ("file", FileStore(DF)),
        ("rdbms", RDBMSStore(DF)),
        ("lsmt", LSMTStore(DF, memtable_limit=200, max_runs=3)),
    ]


@pytest.fixture(scope="module", params=["file", "rdbms", "lsmt"])
def store(request):
    stores = dict(_stores())
    yield stores[request.param]
    _close(stores.values())


def _close(stores):
    for s in stores:
        s.close()


class TestStoreInterface:
    def test_time_range(self, store):
        assert store.time_range() == (int(DF.t.min()), int(DF.t.max()))

    def test_total_points(self, store):
        assert store.total_points() == len(DF)

    @pytest.mark.parametrize("t", [0, 7, 29])
    def test_snapshot_matches_frame(self, store, t):
        oids, xy = store.snapshot(t)
        exp = DF[DF.t == t].sort_values("oid")
        assert oids.tolist() == exp.oid.tolist()
        order = np.argsort(oids)
        np.testing.assert_allclose(xy[order], exp[["x", "y"]].to_numpy())

    def test_snapshot_missing_timestamp(self, store):
        oids, xy = store.snapshot(10_000)
        assert len(oids) == 0 and xy.shape == (0, 2)

    @pytest.mark.parametrize("t", [3, 15])
    def test_points_subset(self, store, t):
        want = [0, 3, 5, 23, 999]  # 999 never exists
        oids, xy = store.points(t, want)
        exp = DF[(DF.t == t) & DF.oid.isin(want)].sort_values("oid")
        assert sorted(oids.tolist()) == exp.oid.tolist()
        order = np.argsort(oids)
        np.testing.assert_allclose(xy[order], exp[["x", "y"]].to_numpy())

    def test_points_empty_request(self, store):
        oids, xy = store.points(3, [])
        assert len(oids) == 0 and xy.shape == (0, 2)


class TestStoreCrossEquivalence:
    def test_all_backends_agree_everywhere(self):
        stores = _stores()
        for t in range(int(DF.t.min()), int(DF.t.max()) + 1):
            snaps = {name: s.snapshot(t) for name, s in stores}
            ref_oids, ref_xy = snaps["file"]
            for name, (oids, xy) in snaps.items():
                assert oids.tolist() == ref_oids.tolist(), (name, t)
                np.testing.assert_allclose(xy, ref_xy, err_msg=f"{name}@{t}")
        _close(s for _name, s in stores)


class TestOracleAccessPaths:
    """The two §5 access paths checked against DuckDB SQL directly."""

    def test_snapshot_is_timestamp_scan(self, spark):
        from repro.oracle import assert_equivalent

        store = FileStore(DF)
        oids, xy = store.snapshot(7)
        got = spark.createDataFrame(
            pd.DataFrame({"oid": oids, "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got, "SELECT oid, x, y FROM pts WHERE t = 7", pts=DF
        )

    def test_points_is_point_query(self, spark):
        from repro.oracle import assert_equivalent

        store = RDBMSStore(DF)
        oids, xy = store.points(3, [1, 2, 8])
        got = spark.createDataFrame(
            pd.DataFrame({"oid": oids, "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got,
            "SELECT oid, x, y FROM pts WHERE t = 3 AND oid IN (1,2,8)",
            pts=DF,
        )
        store.close()


class TestLSMTInternals:
    def test_flush_creates_runs(self):
        s = LSMTStore(memtable_limit=50, max_runs=100)
        for t in range(10):
            for oid in range(20):
                s.put(t, oid, float(t), float(oid))
        assert s.n_runs == 4  # 200 puts / 50 per memtable
        s.flush()
        assert s.total_points() == 200
        s.close()

    def test_compaction_bounds_runs(self):
        s = LSMTStore(memtable_limit=10, max_runs=3)
        for t in range(20):
            for oid in range(5):
                s.put(t, oid, float(t), float(oid))
        assert s.n_runs <= 4  # compaction keeps the tier count bounded
        s.close()

    def test_newest_write_wins(self):
        s = LSMTStore(memtable_limit=4, max_runs=2)
        s.put(1, 1, 10.0, 10.0)
        for i in range(8):  # force flushes around the overwrite
            s.put(50 + i, 1, 0.0, 0.0)
        s.put(1, 1, 99.0, 98.0)
        oids, xy = s.points(1, [1])
        assert oids.tolist() == [1]
        np.testing.assert_allclose(xy[0], [99.0, 98.0])
        s.close()

    def test_reads_mix_memtable_and_runs(self):
        s = LSMTStore(memtable_limit=6, max_runs=10)
        for t in (0, 1):
            for oid in range(5):  # 10 puts → one flush at 6, 4 left in memtable
                s.put(t, oid, t + oid / 10, 0.0)
        oids, _ = s.snapshot(1)
        assert oids.tolist() == [0, 1, 2, 3, 4]
        s.close()

    def test_scene_roundtrip(self):
        df, _ = convoy_scene(n_objects=20, n_timestamps=30, n_convoys=1,
                             convoy_size=3, convoy_len=10, seed=3)
        s = LSMTStore(df, memtable_limit=128)
        f = FileStore(df)
        for t in (0, 15, 29):
            a, ax = s.snapshot(t)
            b, bx = f.snapshot(t)
            assert a.tolist() == b.tolist()
            np.testing.assert_allclose(ax, bx)
        s.close()

    def test_close_removes_own_directory_only(self, tmp_path):
        own = LSMTStore(DF, memtable_limit=8)
        own_dir = own._dir
        given = LSMTStore(DF, directory=str(tmp_path), memtable_limit=8)
        assert own_dir.is_dir() and any(tmp_path.iterdir())
        own.close()
        given.close()
        assert not own_dir.exists()
        assert any(tmp_path.iterdir())


_T, _OID = st.integers(0, 8), st.integers(0, 5)
_XY = st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 2)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _T, _OID, _XY),
        st.tuples(st.just("put_frame"), st.dictionaries(st.tuples(_T, _OID), _XY, max_size=15)),
        st.tuples(st.just("flush")),
    ),
    max_size=30,
)


class TestLSMTModel:
    """Random write sequences against a dict model: reads see the newest
    write of every key, however the writes are spread over memtable,
    runs and compactions."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS, memtable_limit=st.integers(1, 6), max_runs=st.integers(0, 4))
    def test_matches_dict_model(self, ops, memtable_limit, max_runs):
        s = LSMTStore(memtable_limit=memtable_limit, max_runs=max_runs)
        model: dict[tuple[int, int], tuple[float, float]] = {}
        try:
            for op, *args in ops:
                if op == "put":
                    t, oid, xy = args
                    s.put(t, oid, *xy)
                    model[(t, oid)] = xy
                elif op == "put_frame":
                    rows = [(t, oid, *xy) for (t, oid), xy in args[0].items()]
                    s.put_frame(pd.DataFrame(rows, columns=["t", "oid", "x", "y"]))
                    model.update(args[0])
                else:
                    s.flush()
                assert s.n_runs <= max_runs + 1
                assert s.total_points() == len(model)
                ts = [t for t, _oid in model]
                assert s.time_range() == ((min(ts), max(ts)) if ts else (0, -1))
            for t in range(-1, 10):  # -1 and 9 are never written
                at_t = sorted((oid, xy) for (kt, oid), xy in model.items() if kt == t)
                oids, xy = s.snapshot(t)
                assert list(zip(oids.tolist(), map(tuple, xy.tolist()))) == at_t
                want = {0, 2, 5, 99}
                oids, xy = s.points(t, want)
                assert list(zip(oids.tolist(), map(tuple, xy.tolist()))) == [
                    (oid, p) for oid, p in at_t if oid in want
                ]
        finally:
            s.close()


def _malformed(problem):
    """DF with row 5 made bad (for "duplicate": given row 4's key) →
    (frame, the error's problem label)."""
    df = DF.astype({"t": np.float64})
    if problem == "duplicate":
        df.loc[5, ["t", "oid"]] = df.loc[4, ["t", "oid"]]
        return df, "duplicate (t, oid)"
    col, value = {"nan": ("x", np.nan), "inf": ("y", np.inf),
                  "-inf": ("x", -np.inf), "fractional-t": ("t", 1.5)}[problem]
    df.loc[5, col] = value
    return df, "non-integral t" if col == "t" else "non-finite x/y"


class TestMalformedInput:
    """validate_frame is the one boundary: every backend rejects the same
    bad rows with the same error (Spark leaves out duplicates, whose check
    needs a shuffle per query)."""

    @pytest.mark.parametrize(
        "kind, problem",
        [
            (kind, problem)
            for kind in ("file", "rdbms", "lsmt", "spark")
            for problem in ("nan", "inf", "-inf", "fractional-t", "duplicate")
            if (kind, problem) != ("spark", "duplicate")
        ],
    )
    def test_rejected_on_every_backend(self, request, kind, problem):
        df, label = _malformed(problem)
        if kind == "spark":
            from repro.core.k2hop_spark import k2hop_spark

            spark = request.getfixturevalue("spark")
            with pytest.raises(ValueError, match=re.escape(f"{label} at 1 rows")):
                k2hop_spark(spark, spark.createDataFrame(df), 3, 4, EPS)
            return
        make = {"file": FileStore, "rdbms": RDBMSStore, "lsmt": LSMTStore}[kind]
        rows = "2 rows [4, 5]" if problem == "duplicate" else "1 rows [5]"
        with pytest.raises(ValueError, match=re.escape(f"{label} at {rows}")):
            make(df)


class TestMeteredStore:
    def test_counts_by_phase(self):
        ms = MeteredStore(FileStore(DF))
        ms.set_phase("benchmark")
        n0 = len(ms.snapshot(0)[0])
        ms.set_phase("hwmt")
        n1 = len(ms.points(1, [0, 1, 2])[0])
        assert ms.reads == {"benchmark": n0, "hwmt": n1}
        assert ms.points_processed == n0 + n1

    def test_pruning_pct(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.pruning_pct == 100.0
        ms.snapshot(0)
        assert 0 < ms.pruning_pct < 100.0

    def test_delegates_metadata(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.time_range() == (0, 29)
        assert ms.total_points() == len(DF)

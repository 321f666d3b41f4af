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


def _expect(keys):
    """DF's rows at the (t, oid) ``keys``, each once, in (t, oid) order."""
    want = DF.set_index(["t", "oid"]).index.isin(list(keys))
    return DF[want].sort_values(["t", "oid"])


def _assert_rows(got, exp):
    keys, xy = got
    assert keys.dtype == np.int64 and keys.shape == (len(exp), 2)
    assert xy.shape == (len(exp), 2)
    assert keys.tolist() == exp[["t", "oid"]].to_numpy().tolist()
    np.testing.assert_allclose(xy, exp[["x", "y"]].to_numpy())


class TestStoreInterface:
    def test_time_range(self, store):
        assert store.time_range() == (int(DF.t.min()), int(DF.t.max()))

    def test_total_points(self, store):
        assert store.total_points() == len(DF)

    @pytest.mark.parametrize("t", [0, 7, 29])
    def test_snapshot_matches_frame(self, store, t):
        _assert_rows(store.snapshot([t]), DF[DF.t == t].sort_values("oid"))

    def test_snapshot_of_several_timestamps(self, store):
        # Asked out of order, one twice, one outside the span.
        ts = [29, 3, 10_000, 7, 3, -1]
        _assert_rows(store.snapshot(ts), DF[DF.t.isin(ts)].sort_values(["t", "oid"]))

    @pytest.mark.parametrize("ts", [[10_000], [-5], []])
    def test_snapshot_missing_timestamp(self, store, ts):
        keys, xy = store.snapshot(ts)
        assert keys.shape == (0, 2) and xy.shape == (0, 2)

    @pytest.mark.parametrize("t", [3, 15])
    def test_points_in_oid_order(self, store, t):
        # DBSCAN's border ownership follows row order, so the order of the
        # request must not leak into the rows.
        want = [999, 23, 17, 5, 3, 1, 0, -4]  # 999 and -4 never exist
        _assert_rows(store.points([t], [want]), _expect((t, o) for o in want))

    def test_points_of_several_restrictions(self, store):
        # Timestamps out of order, absent objects, a restriction asked
        # twice, two that overlap at t = 15, and timestamps outside the span.
        t = [15, 3, 15, 3, 15, 10_000, -1]
        oids = [[0, 3, 5, 999], [1, 2, 8], [5, 23, 3], [8, 2, 1], [], [0, 1], [0]]
        _assert_rows(
            store.points(t, oids), _expect((a, o) for a, objs in zip(t, oids) for o in objs)
        )

    @pytest.mark.parametrize("t, oids", [([], []), ([3], [[]]), ([3, 4], [[], []])])
    def test_points_empty_request(self, store, t, oids):
        keys, xy = store.points(t, oids)
        assert keys.shape == (0, 2) and xy.shape == (0, 2)


class TestStoreCrossEquivalence:
    def test_all_backends_agree_everywhere(self):
        stores = _stores()
        ts = list(range(int(DF.t.min()), int(DF.t.max()) + 1))
        objs = [list(range(t % 7, 25, 3)) for t in ts]  # every third object
        reads = {
            name: [s.snapshot([t]) for t in ts] + [s.snapshot(ts), s.points(ts, objs)]
            for name, s in stores
        }
        for name, got in reads.items():
            for (keys, xy), (ref_keys, ref_xy) in zip(got, reads["file"]):
                assert keys.tolist() == ref_keys.tolist(), name
                np.testing.assert_allclose(xy, ref_xy, err_msg=name)
        _close(s for _name, s in stores)


class TestOracleAccessPaths:
    """The two §5 access paths checked against DuckDB SQL directly."""

    def test_snapshot_is_timestamp_scan(self, spark):
        from repro.oracle import assert_equivalent

        store = FileStore(DF)
        keys, xy = store.snapshot([7, 9])
        got = spark.createDataFrame(
            pd.DataFrame({"t": keys[:, 0], "oid": keys[:, 1], "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got, "SELECT t, oid, x, y FROM pts WHERE t IN (7, 9)", pts=DF
        )

    def test_points_is_point_query(self, spark):
        from repro.oracle import assert_equivalent

        store = RDBMSStore(DF)
        keys, xy = store.points([3, 5], [[1, 2, 8], [2]])
        got = spark.createDataFrame(
            pd.DataFrame({"t": keys[:, 0], "oid": keys[:, 1], "x": xy[:, 0], "y": xy[:, 1]})
        )
        assert_equivalent(
            got,
            "SELECT t, oid, x, y FROM pts "
            "WHERE (t = 3 AND oid IN (1,2,8)) OR (t = 5 AND oid = 2)",
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
        keys, xy = s.points([1], [[1]])
        assert keys.tolist() == [[1, 1]]
        np.testing.assert_allclose(xy[0], [99.0, 98.0])
        s.close()

    def test_reads_mix_memtable_and_runs(self):
        s = LSMTStore(memtable_limit=6, max_runs=10)
        for t in (0, 1):
            for oid in range(5):  # 10 puts → one flush at 6, 4 left in memtable
                s.put(t, oid, t + oid / 10, 0.0)
        keys, _ = s.snapshot([1])
        assert keys[:, 1].tolist() == [0, 1, 2, 3, 4]
        s.close()

    def test_scene_roundtrip(self):
        df, _ = convoy_scene(n_objects=20, n_timestamps=30, n_convoys=1,
                             convoy_size=3, convoy_len=10, seed=3)
        s = LSMTStore(df, memtable_limit=128)
        f = FileStore(df)
        for ts in ([0], [15], [29], [0, 15, 29]):
            a, ax = s.snapshot(ts)
            b, bx = f.snapshot(ts)
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
            def rows(got):
                keys, xy = got
                return list(zip(map(tuple, keys.tolist()), map(tuple, xy.tolist())))

            for t in range(-1, 10):  # -1 and 9 are never written
                at_t = sorted(((kt, oid), xy) for (kt, oid), xy in model.items() if kt == t)
                assert rows(s.snapshot([t])) == at_t
                want = {0, 2, 5, 99}
                assert rows(s.points([t], [want])) == [(k, p) for k, p in at_t if k[1] in want]
            # One batch: every timestamp, restrictions overlapping at t = 3.
            ts, objs = [*range(-1, 10), 3], [{t % 6, 2, 5, 99} for t in range(-1, 10)] + [{2, 4}]
            assert rows(s.snapshot(ts)) == sorted(model.items())
            assert rows(s.points(ts, objs)) == sorted(
                (k, p) for k, p in model.items()
                if any(k == (t, o) for t, os_ in zip(ts, objs) for o in os_)
            )
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
    """Two boundaries with one error: every store goes through
    validate_frame, and every Spark miner (k/2-hop, DCM, SPARE) through
    spark_input, which rejects the same bad rows, duplicates included, in
    its one aggregate; it counts them but does not name them."""

    @pytest.mark.parametrize(
        "kind, problem",
        [
            (kind, problem)
            for kind in ("file", "rdbms", "lsmt", "spark", "dcm", "spare")
            for problem in ("nan", "inf", "-inf", "fractional-t", "duplicate")
        ],
    )
    def test_rejected_on_every_backend(self, request, kind, problem):
        df, label = _malformed(problem)
        if kind in ("spark", "dcm", "spare"):
            from repro.baselines.dcm import dcm
            from repro.baselines.spare import spare
            from repro.core.k2hop_spark import k2hop_spark

            mine = {"spark": k2hop_spark, "dcm": dcm, "spare": spare}[kind]
            spark = request.getfixturevalue("spark")
            with pytest.raises(ValueError, match=re.escape(f"{label} at 1 rows")):
                mine(spark, spark.createDataFrame(df), 3, 4, EPS)
            return
        make = {"file": FileStore, "rdbms": RDBMSStore, "lsmt": LSMTStore}[kind]
        rows = "2 rows [4, 5]" if problem == "duplicate" else "1 rows [5]"
        with pytest.raises(ValueError, match=re.escape(f"{label} at {rows}")):
            make(df)


class TestMeteredStore:
    def test_counts_by_phase(self):
        ms = MeteredStore(FileStore(DF))
        ms.set_phase("benchmark")
        n0 = len(ms.snapshot([0, 1])[0])
        ms.set_phase("hwmt")
        n1 = len(ms.points([1, 2], [[0, 1, 2], [3]])[0])
        assert ms.reads == {"benchmark": n0, "hwmt": n1}
        assert ms.points_processed == n0 + n1
        assert n0 == len(DF[DF.t.isin([0, 1])])

    @pytest.mark.parametrize("kind", ["file", "rdbms", "lsmt"])
    def test_counts_each_returned_row_once(self, kind):
        # Rows two overlapping restrictions share, or a restriction asked
        # twice, are returned and counted once, on every backend.
        inner = dict(_stores())
        ms = MeteredStore(inner[kind])
        keys, xy = ms.points([3, 3, 3], [[0, 1, 2, 3], [2, 3, 4], [0, 1, 2, 3]])
        exp = _expect((3, o) for o in range(5))
        _assert_rows((keys, xy), exp)
        ms.snapshot([5, 5])
        assert ms.points_processed == len(exp) + (DF.t == 5).sum()
        _close(inner.values())

    def test_pruning_pct(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.pruning_pct == 100.0
        ms.snapshot([0])
        assert 0 < ms.pruning_pct < 100.0

    def test_delegates_metadata(self):
        ms = MeteredStore(FileStore(DF))
        assert ms.time_range() == (0, 29)
        assert ms.total_points() == len(DF)

"""HWMT tests, including the paper's Figure 4 bisection order and the
full Table 2 / Figure 6 worked example."""
import pandas as pd
import pytest

from repro.core import hwmt as hwmt_module
from repro.core.benchmarks import benchmark_cluster_sets, candidate_clusters
from repro.core.convoy import Convoy
from repro.core.hwmt import hwmt, hwmt_order, recluster
from repro.stores import FileStore
from repro.testkit import EPS, lset, scene_from_groups


class TestHwmtOrder:
    def test_figure4_window_0_8(self):
        # Fig 4 / Table 2: root 4, then 2 and 6, then 1,3,5,7 (the
        # table's t entries '1' at (3,3) and '6' at (3,4) are typos).
        assert hwmt_order(0, 8) == [[4], [2, 6], [1, 3, 5, 7]]

    def test_empty_interior(self):
        assert hwmt_order(3, 4) == []  # k=2/3: adjacent benchmark points

    def test_one_interior(self):
        assert hwmt_order(4, 6) == [[5]]

    @pytest.mark.parametrize("lo,hi", [(0, 5), (0, 7), (10, 23), (0, 2)])
    def test_covers_exactly_interior(self, lo, hi):
        flat = sorted(t for level in hwmt_order(lo, hi) for t in level)
        assert flat == list(range(lo + 1, hi))

    def test_levels_are_farthest_first(self):
        levels = hwmt_order(0, 16)
        assert levels[0] == [8]
        assert levels[1] == [4, 12]


def _table2_store():
    """The Figure 6 dataset: timestamps 0..8, m=3, letters a..o.

    t=0: {a..j}, {x,y,z}, {m,n,o} cluster;  t=8: {a,b,c,d}, {x,y,z};
    t=4: only {a,b,c,d} still together ({x,y,z} scattered);
    interior t=1,2,3,5,6,7: {a,b,c,d} together.
    """
    abcd = [0, 1, 2, 3]
    a_j = list(range(10))
    xyz = [23, 24, 25]
    mno = [12, 13, 14]
    all_oids = sorted(set(a_j + xyz + mno))
    groups = {t: [abcd] for t in range(1, 8)}
    groups[0] = [a_j, xyz, mno]
    groups[8] = [abcd, xyz]
    return FileStore(scene_from_groups(groups, all_oids)), abcd, xyz, mno


class TestTable2Example:
    def test_benchmark_clusters(self):
        store, abcd, xyz, mno = _table2_store()
        c0, c8 = benchmark_cluster_sets(store, [0, 8], 3, EPS).values()
        assert sorted(c0, key=sorted) == sorted(
            [frozenset(range(10)), frozenset(xyz), frozenset(mno)], key=sorted
        )
        assert sorted(c8, key=sorted) == sorted(
            [frozenset(abcd), frozenset(xyz)], key=sorted
        )

    def test_cc1_is_intersection(self):
        store, abcd, xyz, _ = _table2_store()
        c0, c8 = benchmark_cluster_sets(store, [0, 8], 3, EPS).values()
        cc1 = candidate_clusters(c0, c8, 3)
        assert sorted(cc1, key=sorted) == sorted(
            [frozenset(abcd), frozenset(xyz)], key=sorted
        )

    def test_root_recluster_kills_xyz(self):
        # Table 2 step (1,1): reCluster(DB[4]|CC1) = {{a,b,c,d}}.
        store, abcd, xyz, _ = _table2_store()
        cc1 = [frozenset(abcd), frozenset(xyz)]
        assert recluster(store, [(4, g) for g in cc1], 3, EPS) == [[frozenset(abcd)], []]

    def test_full_hwmt_yields_spanning_abcd(self):
        store, abcd, *_ = _table2_store()
        cc1 = [frozenset(abcd), frozenset({23, 24, 25})]
        out = hwmt(store, [(0, 8)], [cc1], 3, EPS)
        assert out == [[Convoy(ts=0, te=8, objs=frozenset(abcd))]]

    def test_stepwise_survivors_match_table2(self):
        # Walk the table's (l, n) steps: after every recluster, the
        # surviving set is exactly {{a,b,c,d}}.
        store, abcd, xyz, _ = _table2_store()
        groups = [frozenset(abcd), frozenset(xyz)]
        for t in [4, 2, 6, 1, 3, 5, 7]:
            found = recluster(store, [(t, g) for g in groups], 3, EPS)
            groups = [c for cs in found for c in cs]
            assert groups == [frozenset(abcd)], f"after t={t}"


class TestReclusterRound:
    """One ``recluster`` call: every key is clustered on its own rows, in
    one store read and one clustering call."""

    BIG = 2**62  # object ids and timestamps need not fit a packed key

    def _store(self):
        # At t = -3, objects BIG, 5, 7 and 9 are together and -4 is far
        # away; 11 has a point only at t = -2.
        rows = [(-3, o, 0.5 * i, 0.0) for i, o in enumerate([5, 7, 9, self.BIG])]
        rows += [(-3, -4, 500.0, 0.0), (-2, 11, 0.0, 0.0)]
        return SpyStore(pd.DataFrame(rows, columns=["t", "oid", "x", "y"]))

    def test_overlapping_keys_at_one_t(self, monkeypatch):
        store = self._store()
        calls, cluster = [], hwmt_module.meps_clusters

        def counted(oids, *args):
            calls.append(oids.tolist())
            return cluster(oids, *args)

        monkeypatch.setattr(hwmt_module, "meps_clusters", counted)
        keys = [
            (-3, frozenset({self.BIG, 5, 7})),
            (-3, frozenset({5, 7, 9, 11})),  # 11 has no point at -3
            (-3, frozenset({5, 7, -4})),
        ]
        found = recluster(store, keys, 3, EPS)
        assert found == [[frozenset({self.BIG, 5, 7})], [frozenset({5, 7, 9})], []]
        assert len(store.calls) == 1
        # One call, each key's rows in oid order, shared points repeated.
        assert calls == [[5, 7, self.BIG, 5, 7, 9, -4, 5, 7]]
        assert found == [recluster(store, [key], 3, EPS)[0] for key in keys]

    def test_no_point_at_all(self):
        store = self._store()
        assert recluster(store, [(-1, frozenset({5, 7, 9}))], 3, EPS) == [[]]


class SpyStore(FileStore):
    """Records the (t, objects) restrictions of every ``points`` call."""

    def __init__(self, df):
        super().__init__(df)
        self.calls = []

    def points(self, t, oids):
        self.calls.append(list(zip(t, map(frozenset, oids))))
        return super().points(t, oids)


class TestHwmtPruning:
    def test_abandons_window_on_first_dead_timestamp(self):
        # Candidates together at benchmarks but never inside the window:
        # the root recluster already returns [] and HWMT stops.
        groups = {t: [] for t in range(0, 9)}
        groups[0] = [[0, 1, 2]]
        groups[8] = [[0, 1, 2]]
        store = SpyStore(scene_from_groups(groups, list(range(5))))
        out = hwmt(store, [(0, 8)], [[frozenset({0, 1, 2})]], 3, EPS)
        assert out == [[]]
        assert store.calls == [[(4, frozenset({0, 1, 2}))]]  # only the root

    def test_empty_cc_short_circuits(self):
        store = SpyStore(_three_window_frame())
        assert hwmt(store, [(0, 8), (8, 16)], [[], []], 3, EPS) == [[], []]
        assert store.calls == []

    def test_window_split_inside(self):
        # {a,b,c,d,e,f} at both benchmarks, but split {abc}/{def} at the
        # root: both halves span if they persist at every interior t.
        abc, df_ = [0, 1, 2], [3, 4, 5]
        groups = {t: [[0, 1, 2, 3, 4, 5]] for t in (0, 8)}
        for t in range(1, 8):
            groups[t] = [abc, df_]
        store = FileStore(scene_from_groups(groups, list(range(8))))
        (out,) = hwmt(store, [(0, 8)], [[frozenset(range(6))]], 3, EPS)
        assert sorted(out) == [
            Convoy(ts=0, te=8, objs=frozenset(abc)),
            Convoy(ts=0, te=8, objs=frozenset(df_)),
        ]


def _three_window_frame():
    """Windows (0, 8), (8, 16) and (16, 24), each with one candidate:
    {0,1,2} is together only at 0 and 8 (abandoned at the root),
    {3,...,8} splits into {3,4,5} and {6,7,8} inside its window, and
    {9,10,11} stays together throughout."""
    groups = {t: [] for t in range(25)}
    groups[0] = [[0, 1, 2]]
    groups[8] = [[0, 1, 2], [3, 4, 5, 6, 7, 8]]
    groups[16] = [[3, 4, 5, 6, 7, 8], [9, 10, 11]]
    for t in range(9, 16):
        groups[t] = [[3, 4, 5], [6, 7, 8]]
    for t in range(17, 25):
        groups[t] = [[9, 10, 11]]
    return scene_from_groups(groups, list(range(14)))


class TestLockstep:
    WINDOWS = [(0, 8), (8, 16), (16, 24)]
    CCS = [[frozenset({0, 1, 2})], [frozenset(range(3, 9))], [frozenset({9, 10, 11})]]

    def test_equals_each_window_alone(self):
        store = FileStore(_three_window_frame())
        together = hwmt(store, self.WINDOWS, self.CCS, 3, EPS)
        alone = [hwmt(store, [w], [cc], 3, EPS)[0] for w, cc in zip(self.WINDOWS, self.CCS)]
        assert together == alone
        assert together[0] == []
        assert sorted(together[1]) == [
            Convoy(ts=8, te=16, objs=frozenset({3, 4, 5})),
            Convoy(ts=8, te=16, objs=frozenset({6, 7, 8})),
        ]
        assert together[2] == [Convoy(ts=16, te=24, objs=frozenset({9, 10, 11}))]

    def test_one_points_call_per_round(self):
        store = SpyStore(_three_window_frame())
        hwmt(store, self.WINDOWS, self.CCS, 3, EPS, memo={})
        # Round r reads each live window at its r-th bisection timestamp
        # (4 2 6 1 3 5 7 past each window's start): the first window dies
        # at its root, the other two run all seven rounds.
        assert [sorted({t for t, _objs in call}) for call in store.calls] == [
            [4, 12, 20], [10, 18], [14, 22], [9, 17], [11, 19], [13, 21], [15, 23]
        ]
        keys = [key for call in store.calls for key in call]
        assert len(keys) == len(set(keys))
        # After the root splits {3,...,8}, its window reads both halves.
        assert set(store.calls[1]) >= {(10, frozenset({3, 4, 5})), (10, frozenset({6, 7, 8}))}

    def test_memo_hits_are_not_read(self):
        store = SpyStore(_three_window_frame())
        memo = {}
        first = hwmt(store, self.WINDOWS, self.CCS, 3, EPS, memo)
        store.calls.clear()
        assert hwmt(store, self.WINDOWS, self.CCS, 3, EPS, memo) == first
        assert store.calls == []

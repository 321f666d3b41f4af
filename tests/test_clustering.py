"""Unit tests for the DBSCAN substrate (grid and naive backends)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import GRID_MIN_POINTS, NOISE, dbscan, meps_clusters


def _labels_to_partition(labels):
    part = {}
    for i, l in enumerate(labels):
        if l != NOISE:
            part.setdefault(l, set()).add(i)
    return sorted(map(frozenset, part.values()), key=sorted)


class TestDbscanBasics:
    def test_empty(self):
        assert dbscan(np.empty((0, 2)), 1.0, 3).size == 0

    def test_single_point_is_noise_for_minpts2(self):
        assert dbscan(np.array([[0.0, 0.0]]), 1.0, 2).tolist() == [NOISE]

    def test_single_point_cluster_minpts1(self):
        assert dbscan(np.array([[0.0, 0.0]]), 1.0, 1).tolist() == [0]

    def test_two_clusters(self):
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0], [100, 100], [100.5, 100], [101, 100]], float)
        labels = dbscan(xy, 1.0, 3)
        assert _labels_to_partition(labels) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]

    def test_chain_is_density_connected(self):
        # A chain of points each within eps of the next: one cluster.
        xy = np.column_stack([np.arange(10) * 0.9, np.zeros(10)])
        labels = dbscan(xy, 1.0, 2)
        assert set(labels) == {0}

    def test_chain_broken_by_gap(self):
        xy = np.column_stack([np.r_[np.arange(5) * 0.9, 10 + np.arange(5) * 0.9], np.zeros(10)])
        assert len(_labels_to_partition(dbscan(xy, 1.0, 2))) == 2

    def test_minpts_boundary_inclusive(self):
        # |NH(p,eps)| >= m includes p itself (standard DBSCAN).
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0]], float)
        # eps=0.4: every neighborhood is just the point itself → all noise.
        assert set(dbscan(xy, 0.4, 3)) == {NOISE}
        # eps=0.6: the middle point sees all three (|NH| = 3 ≥ m, self
        # included) and the ends join as border points → one cluster.
        assert set(dbscan(xy, 0.6, 3)) == {0}
        assert set(dbscan(xy, 1.0, 3)) == {0}

    def test_border_point_joins_cluster(self):
        # p3 within eps of a core point but not core itself.
        xy = np.array([[0, 0], [0.5, 0], [-0.5, 0], [1.4, 0]], float)
        labels = dbscan(xy, 1.0, 3)
        assert labels[3] == labels[0] != NOISE

    def test_exact_eps_distance_is_neighbor(self):
        xy = np.array([[0, 0], [1.0, 0], [2.0, 0]], float)
        assert set(dbscan(xy, 1.0, 3)) == {0}


class TestGridEqualsNaive:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("minpts", [2, 3, 5])
    def test_random_agreement(self, seed, minpts):
        g = np.random.default_rng(seed)
        xy = g.random((120, 2)) * 20
        for eps in (0.5, 1.0, 2.5):
            a = _labels_to_partition(dbscan(xy, eps, minpts, mode="grid"))
            b = _labels_to_partition(dbscan(xy, eps, minpts, mode="naive"))
            assert a == b, f"eps={eps}"

    def test_negative_coordinates(self):
        g = np.random.default_rng(99)
        xy = g.random((80, 2)) * 20 - 10
        a = _labels_to_partition(dbscan(xy, 1.0, 3, mode="grid"))
        b = _labels_to_partition(dbscan(xy, 1.0, 3, mode="naive"))
        assert a == b


@st.composite
def snapshots(draw):
    """(xy, eps) of one snapshot of 0 to 3 x GRID_MIN_POINTS points.

    Lattice worlds put neighbours exactly eps apart and points on top of
    each other, around the origin (negative coordinates included) or
    offset by 1e9 with a small power-of-two eps, where cell keys wrap in
    int64. Continuous worlds are uniform random points.
    """
    n = draw(st.integers(0, 3 * GRID_MIN_POINTS))
    kind = draw(st.sampled_from(["lattice", "offset", "continuous"]))
    if kind == "continuous":
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        side = draw(st.sampled_from([1.0, 4.0, 12.0]))
        return (g.random((n, 2)) - 0.5) * side, draw(st.sampled_from([0.3, 1.0, 2.5]))
    r = draw(st.integers(1, 8))
    coord = st.integers(-r, r)
    cells = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    xy = np.array(cells, dtype=float).reshape(n, 2)
    if kind == "lattice":
        return xy, 1.0
    eps = 2.0**-10
    return 1e9 + xy * eps, eps


class TestGridLabelsEqualNaive:
    """The grid path's labels, not just its partition, equal the pairwise
    BFS: same cluster numbers, same owner for every border point."""

    @settings(max_examples=300, deadline=None)
    @given(snapshots(), st.integers(1, 6))
    def test_labels_and_clusters(self, snapshot, min_pts):
        xy, eps = snapshot
        grid = dbscan(xy, eps, min_pts, mode="grid")
        assert grid.tolist() == dbscan(xy, eps, min_pts, mode="naive").tolist()
        oids = np.arange(len(xy)) * 3 + 5
        assert meps_clusters(oids, xy, min_pts, eps) == meps_clusters(
            oids, xy, min_pts, eps, mode="naive"
        )


class TestMepsClusters:
    def test_size_filter(self):
        # minPts=2 clusters pair {10,11}, but m=3 discards size-2 sets.
        oids = np.array([10, 11, 20, 21, 22])
        xy = np.array([[0, 0], [0.5, 0], [50, 0], [50.5, 0], [51, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [frozenset({20, 21, 22})]

    def test_returns_oids_not_indices(self):
        oids = np.array([7, 9, 13])
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [frozenset({7, 9, 13})]

    def test_clusters_are_disjoint(self):
        g = np.random.default_rng(5)
        oids = np.arange(200)
        xy = g.random((200, 2)) * 10
        cl = meps_clusters(oids, xy, 3, 1.0)
        seen = set()
        for c in cl:
            assert not (c & seen)
            seen |= c

    def test_empty_snapshot(self):
        assert meps_clusters(np.empty(0, dtype=int), np.empty((0, 2)), 3, 1.0) == []

"""Unit tests for the DBSCAN substrate (grid and naive backends)."""
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import clustering
from repro.core.clustering import NOISE, dbscan, meps_clusters


def grid_at_every_size():
    """``mode="grid"`` takes the grid pipeline however few the rows."""
    return patch.object(clustering, "GRID_MIN_POINTS", 0)


def _labels_to_partition(labels):
    part = {}
    for i, l in enumerate(labels):
        if l != NOISE:
            part.setdefault(l, set()).add(i)
    return sorted(map(frozenset, part.values()), key=sorted)


class TestDbscanBasics:
    @pytest.fixture(autouse=True, params=["cutoff", "grid"])
    def path(self, request):
        if request.param == "cutoff":
            yield
        else:
            with grid_at_every_size():
                yield

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
def points(draw, n):
    """(xy, eps) of ``n`` points of one world.

    Lattice worlds put neighbours exactly eps apart and points on top of
    each other, around the origin (negative coordinates included), offset
    by 1e9 with a small power-of-two eps (cell indices ~2⁴⁰), or split
    among lattices 2⁴⁰ cells apart on both axes, too far apart for packed
    cell keys. Continuous worlds are uniform random points.
    """
    kind = draw(st.sampled_from(["lattice", "offset", "far", "continuous"]))
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
    if kind == "far":
        far = st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
        shift = draw(st.lists(far, min_size=n, max_size=n))
        return xy + 2.0**40 * np.array(shift, dtype=float).reshape(n, 2), 1.0
    eps = 2.0**-10
    return 1e9 + xy * eps, eps


def snapshots():
    """(xy, eps) of one snapshot of 0 to 96 points."""
    return st.integers(0, 96).flatmap(points)


def segmented():
    """(sizes, (xy, eps)): 0 to 6 segments, empty and single-point ones
    included, of one world, so segments overlap in space."""
    size = st.one_of(st.just(0), st.just(1), st.integers(0, 40))
    return st.lists(size, max_size=6).flatmap(
        lambda sizes: st.tuples(st.just(sizes), points(sum(sizes)))
    )


class TestGridLabelsEqualNaive:
    """The grid path's labels, not just its partition, equal the pairwise
    BFS: same cluster numbers, same owner for every border point."""

    @settings(max_examples=300, deadline=None)
    @given(snapshots(), st.integers(1, 6))
    def test_labels_and_clusters(self, snapshot, min_pts):
        xy, eps = snapshot
        with grid_at_every_size():
            grid = dbscan(xy, eps, min_pts, mode="grid")
            oids = np.arange(len(xy)) * 3 + 5
            clusters = meps_clusters(oids, xy, min_pts, eps)
        assert grid.tolist() == dbscan(xy, eps, min_pts, mode="naive").tolist()
        assert clusters == meps_clusters(oids, xy, min_pts, eps, mode="naive")

    def test_int64_wrap_of_packed_cell_keys(self):
        # Cells (2³¹−1, 2³²−1) and (2³¹−1, 2³²) are adjacent, but as
        # cx·2³² + cy keys they are 2⁶³−1 and its int64 wrap −2⁶³.
        x = 2.0**31 - 1 + np.arange(1, 7) / 8
        y = 2.0**32 - 0.75 + np.arange(6) / 4
        xy = np.array([(a, b) for a in x for b in y])
        with grid_at_every_size():
            labels = dbscan(xy, 1.0, 3)
        assert labels.tolist() == dbscan(xy, 1.0, 3, mode="naive").tolist()
        assert set(labels) == {0}

    @pytest.mark.parametrize(
        "xy",
        [
            # Cells up to ~2¹⁰⁰⁰ apart; the quotients of ±1e300 / 1e-10 overflow.
            [[-1e300, 1e300], [1e300, -1e300], [0, 0], [0.5, 0], [1, 0], [1e300, -1e300], [0, 1]],
            # Cells 2⁶⁰ apart on one axis: rebased on -2⁶⁰, cells 128 and 129
            # round 256 apart in float64.
            [[-(2.0**60), 0], [128.5, 0], [129.2, 0]],
        ],
        ids=["overflow", "one-axis"],
    )
    def test_spans_too_wide_for_packed_keys(self, xy):
        xy = np.array(xy)
        for eps in (1.0, 1e-10):
            with np.errstate(over="ignore"), grid_at_every_size():
                grid, naive = dbscan(xy, eps, 2), dbscan(xy, eps, 2, mode="naive")
            assert grid.tolist() == naive.tolist()


def segmented_labels(xy, eps, min_pts, sizes, mode="grid"):
    """(labels, segment of each cluster) of one segmented call, as lists."""
    labels, cseg = clustering._labels(xy, eps, min_pts, np.array(sizes, dtype=np.int64), mode)
    return labels.tolist(), cseg.tolist()


class TestSegments:
    """One call over many segments gives each segment the labels and
    clusters it gets alone."""

    @settings(max_examples=300, deadline=None)
    @given(segmented(), st.integers(1, 6))
    def test_segments_equal_naive_alone(self, world, min_pts):
        sizes, (xy, eps) = world
        oids = np.arange(len(xy)) * 3 + 5
        bounds = np.cumsum([0, *sizes])
        parts = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        # Each segment alone, its clusters numbered on after the earlier ones'.
        labels, cseg = [], []
        for s, p in enumerate(parts):
            alone = dbscan(xy[p], eps, min_pts, mode="naive").tolist()
            labels += [c + len(cseg) if c != NOISE else NOISE for c in alone]
            cseg += [s] * (max(alone, default=NOISE) + 1)
        with grid_at_every_size():
            assert segmented_labels(xy, eps, min_pts, sizes) == (labels, cseg)
            clusters = meps_clusters(oids, xy, min_pts, eps, sizes)
        assert segmented_labels(xy, eps, min_pts, sizes, "naive") == (labels, cseg)
        assert clusters == [
            meps_clusters(oids[p], xy[p], min_pts, eps, mode="naive")[0] for p in parts
        ]
        # Below the cutoff the grid mode takes the pairwise path.
        assert meps_clusters(oids, xy, min_pts, eps, sizes) == clusters

    @pytest.mark.parametrize("mode", ["grid", "naive"])
    def test_segments_do_not_share_points(self, mode):
        # Two segments at the same place: each is too small alone.
        xy = np.array([[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]], float)
        with grid_at_every_size():
            assert segmented_labels(xy, 1.0, 3, [2, 2], mode) == ([NOISE] * 4, [])
            assert segmented_labels(xy, 1.0, 3, [1, 3], mode) == ([NOISE, 0, 0, 0], [1])
            assert meps_clusters(np.arange(4), xy, 3, 1.0, [0, 3, 1], mode=mode) == [
                [], [frozenset({0, 1, 2})], []
            ]

    @pytest.mark.parametrize("mode", ["grid", "naive"])
    def test_no_segments(self, mode):
        with grid_at_every_size():
            assert meps_clusters(np.empty(0, dtype=int), np.empty((0, 2)), 3, 1.0, [], mode=mode) == []

    def test_sizes_must_cover_the_rows(self):
        with pytest.raises(ValueError, match="sum to 4 rows"):
            meps_clusters(np.arange(4), np.zeros((4, 2)), 3, 1.0, [2, 1])


class TestMepsClusters:
    def test_size_filter(self):
        # minPts=2 clusters pair {10,11}, but m=3 discards size-2 sets.
        oids = np.array([10, 11, 20, 21, 22])
        xy = np.array([[0, 0], [0.5, 0], [50, 0], [50.5, 0], [51, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [[frozenset({20, 21, 22})]]

    def test_returns_oids_not_indices(self):
        oids = np.array([7, 9, 13])
        xy = np.array([[0, 0], [0.5, 0], [1.0, 0]], float)
        assert meps_clusters(oids, xy, 3, 1.0) == [[frozenset({7, 9, 13})]]

    def test_clusters_are_disjoint(self):
        g = np.random.default_rng(5)
        oids = np.arange(200)
        xy = g.random((200, 2)) * 10
        cl = meps_clusters(oids, xy, 3, 1.0)[0]
        seen = set()
        for c in cl:
            assert not (c & seen)
            seen |= c

    def test_empty_snapshot(self):
        assert meps_clusters(np.empty(0, dtype=int), np.empty((0, 2)), 3, 1.0) == [[]]

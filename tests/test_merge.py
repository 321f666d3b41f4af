"""DCM-merge tests, centred on the paper's Table 3 / Figure 5 example."""
from repro.core.convoy import Convoy, convoy
from repro.core.merge import dcm_merge
from repro.testkit import lset


def _fig5_windows():
    """1st-order spanning convoys of the four hop-windows of Figure 5,
    reconstructed from Table 3's merge trace (m = 2), with benchmark
    points b0..b4 at 0,1,2,3,4."""
    h0 = [convoy(lset("abcd"), 0, 1), convoy(lset("efgh"), 0, 1), convoy(lset("ijk"), 0, 1)]
    h1 = [convoy(lset("abcd"), 1, 2), convoy(lset("ef"), 1, 2), convoy(lset("gh"), 1, 2)]
    h2 = [convoy(lset("abef"), 2, 3), convoy(lset("cdgh"), 2, 3), convoy(lset("ijk"), 2, 3)]
    h3 = [convoy(lset("ab"), 3, 4), convoy(lset("ef"), 3, 4), convoy(lset("cdgh"), 3, 4)]
    return [h0, h1, h2, h3]


class TestTable3Example:
    def test_first_merge(self):
        """Column '1st merge': merging H0 and H1."""
        got = set(dcm_merge(_fig5_windows()[:2], m=2))
        assert got == {
            convoy(lset("abcd"), 0, 2),
            convoy(lset("efgh"), 0, 1),
            convoy(lset("ef"), 0, 2),
            convoy(lset("gh"), 0, 2),
            convoy(lset("ijk"), 0, 1),
        }

    def test_second_merge(self):
        """Column '2nd merge': H0..H2 (plus the earlier-closed maximal
        convoys, which Table 3 elides for space)."""
        got = set(dcm_merge(_fig5_windows()[:3], m=2))
        assert got == {
            convoy(lset("abcd"), 0, 2),
            convoy(lset("ab"), 0, 3),
            convoy(lset("cd"), 0, 3),
            convoy(lset("ef"), 0, 3),
            convoy(lset("gh"), 0, 3),
            convoy(lset("abef"), 2, 3),
            convoy(lset("cdgh"), 2, 3),
            convoy(lset("ijk"), 2, 3),
            # closed maximal convoys from earlier windows:
            convoy(lset("efgh"), 0, 1),
            convoy(lset("ijk"), 0, 1),
        }

    def test_third_merge(self):
        """Column '3rd merge': the full Figure 5 result."""
        got = set(dcm_merge(_fig5_windows(), m=2))
        assert got == {
            convoy(lset("ab"), 0, 4),
            convoy(lset("cd"), 0, 4),
            convoy(lset("ef"), 0, 4),
            convoy(lset("gh"), 0, 4),
            convoy(lset("cdgh"), 2, 4),
            convoy(lset("abef"), 2, 3),
            convoy(lset("ijk"), 2, 3),
            convoy(lset("abcd"), 0, 2),
            convoy(lset("efgh"), 0, 1),
            convoy(lset("ijk"), 0, 1),
        }


class TestMergeSemantics:
    def test_empty(self):
        assert dcm_merge([], 2) == []
        assert dcm_merge([[], []], 2) == []

    def test_single_window_passthrough(self):
        vs = [convoy([1, 2, 3], 0, 4)]
        assert dcm_merge([vs], 2) == vs

    def test_gap_window_closes_all(self):
        h0 = [convoy([1, 2], 0, 1)]
        h1: list[Convoy] = []
        h2 = [convoy([1, 2], 2, 3)]
        got = set(dcm_merge([h0, h1, h2], 2))
        assert got == {convoy([1, 2], 0, 1), convoy([1, 2], 2, 3)}

    def test_intersection_below_m_not_merged(self):
        h0 = [convoy([1, 2, 3], 0, 1)]
        h1 = [convoy([3, 4, 5], 1, 2)]
        got = set(dcm_merge([h0, h1], 3))
        assert got == {convoy([1, 2, 3], 0, 1), convoy([3, 4, 5], 1, 2)}

    def test_full_continuation_absorbs(self):
        # Same objects across all windows → one merged convoy only.
        per_w = [[convoy([1, 2], i, i + 1)] for i in range(5)]
        assert dcm_merge(per_w, 2) == [convoy([1, 2], 0, 5)]

    def test_dcm_partitions_with_fragments_ending_inside(self):
        """DCM-shaped input: per-partition sweep output, where a fragment
        may end before its partition's right boundary.

        The world (m = 2): {1,2} together on [0,10], object 3 with them
        on [4,5]; partitions [0,4], [4,8], [8,10] share their boundary
        timestamps. Merging {1,2}[0,4] with [4,5] and [4,8] of the second
        partition gives {1,2}[0,5] ⊂ {1,2}[0,8], two open convoys with
        different ends; the shorter one can never merge again. The
        answer is the world's maximal convoys: {1,2,3}[4,5] (a fragment
        that ends inside its partition) and {1,2}[0,10].
        """
        parts = [
            [convoy([1, 2], 0, 4), convoy([1, 2, 3], 4, 4)],
            [convoy([1, 2, 3], 4, 5), convoy([1, 2], 4, 8)],
            [convoy([1, 2], 8, 10)],
        ]
        assert dcm_merge(parts[:2], 2) == [
            convoy([1, 2], 0, 8), convoy([1, 2, 3], 4, 5),
        ]
        assert dcm_merge(parts, 2) == [
            convoy([1, 2], 0, 10), convoy([1, 2, 3], 4, 5),
        ]

    def test_next_timestamp_merges(self):
        # w starting right after v ends joins it, as consecutive snapshots do.
        h0 = [convoy([1, 2, 3], 0, 2)]
        h1 = [convoy([2, 3, 4], 3, 5)]
        assert set(dcm_merge([h0, h1], 2)) == {
            convoy([1, 2, 3], 0, 2), convoy([2, 3], 0, 5), convoy([2, 3, 4], 3, 5),
        }

    def test_skipped_timestamp_closes(self):
        # A timestamp between v's end and w's start: nothing joins.
        h0 = [convoy([1, 2], 0, 2)]
        h1 = [convoy([1, 2], 4, 5)]
        assert set(dcm_merge([h0, h1], 2)) == set(h0 + h1)

    def test_whole_survival_at_next_timestamp_stays_open(self):
        # {1,2} ⊆ {1,2,3} at v.te + 1, so {1,2} goes on merging after it.
        per_w = [[convoy([1, 2], 0, 1)], [convoy([1, 2, 3], 2, 3)], [convoy([1, 2], 4, 5)]]
        assert set(dcm_merge(per_w, 2)) == {convoy([1, 2], 0, 5), convoy([1, 2, 3], 2, 3)}

    def test_result_is_antichain(self):
        got = dcm_merge(_fig5_windows(), 2)
        for v in got:
            assert not any(v is not w and v.is_sub_convoy(w) for w in got)

"""Unit tests for the Convoy model and antichain maintenance."""
import pytest

from repro.core.convoy import Convoy, antichain, convoy, update


class TestConvoy:
    def test_length(self):
        assert convoy([1, 2, 3], 4, 9).length == 6
        assert convoy([1, 2], 5, 5).length == 1

    def test_empty_lifespan_rejected(self):
        with pytest.raises(ValueError):
            convoy([1], 5, 4)

    def test_sub_convoy_definition_5(self):
        w = convoy([1, 2, 3], 0, 10)
        assert convoy([1, 2], 2, 5).is_sub_convoy(w)
        assert w.is_sub_convoy(w)  # non-strict
        assert not convoy([1, 4], 2, 5).is_sub_convoy(w)  # extra object
        assert not convoy([1, 2], 0, 11).is_sub_convoy(w)  # longer lifespan

    def test_hashable_and_equal(self):
        assert convoy([1, 2], 0, 3) == convoy([2, 1], 0, 3)
        assert len({convoy([1, 2], 0, 3), convoy([1, 2], 0, 3)}) == 1

    def test_sort_order_is_total(self):
        # Same lifespan, object sets neither subset of the other.
        a, b = convoy([0, 3], 2, 3), convoy([1, 2], 2, 3)
        assert sorted([a, b]) == sorted([b, a]) == [a, b]
        assert sorted([convoy([5], 1, 2), a]) == [convoy([5], 1, 2), a]


class TestUpdate:
    def test_drops_incoming_sub_convoy(self):
        s = {convoy([1, 2, 3], 0, 10)}
        update(s, convoy([1, 2], 3, 5))
        assert s == {convoy([1, 2, 3], 0, 10)}

    def test_evicts_existing_sub_convoys(self):
        s = {convoy([1, 2], 3, 5), convoy([4, 5], 0, 2)}
        update(s, convoy([1, 2, 3], 0, 10))
        assert s == {convoy([1, 2, 3], 0, 10), convoy([4, 5], 0, 2)}

    def test_incomparable_coexist(self):
        # Example from paper §3.2: {a,b,c} over [1,3] vs {a,b,c,d,e,f} over [1,2].
        s = set()
        update(s, convoy([0, 1, 2], 1, 3))
        update(s, convoy([0, 1, 2, 3, 4, 5], 1, 2))
        assert len(s) == 2


class TestAntichain:
    def test_figure2_convoys(self):
        # v1 ⊂ v2 ⊂ v3 over the same interval (paper Figure 2 narrative).
        v1 = convoy([22], 0, 2)
        v2 = convoy([22, 23], 0, 2)
        v3 = convoy([22, 23, 24, 25], 0, 2)
        assert antichain([v1, v2, v3]) == {v3}

    def test_idempotent(self):
        vs = [convoy([1, 2], 0, 4), convoy([1, 2, 3], 1, 3), convoy([9], 0, 9)]
        a = antichain(vs)
        assert antichain(a) == a

    def test_duplicates_collapse(self):
        assert antichain([convoy([1], 0, 1)] * 3) == {convoy([1], 0, 1)}

    def test_no_element_dominated(self):
        import random

        rng = random.Random(0)
        vs = [
            convoy(rng.sample(range(6), rng.randint(1, 4)), s, s + rng.randint(0, 5))
            for s in (rng.randint(0, 5) for _ in range(60))
        ]
        a = antichain(vs)
        for v in a:
            assert not any(v is not w and v.is_sub_convoy(w) for w in a)
        # Every input is represented by some dominating element.
        for v in vs:
            assert any(v.is_sub_convoy(w) for w in a)

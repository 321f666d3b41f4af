"""Harness tests: dataset registry, grids, row generators, and the
markdown renderer that EXPERIMENTS.md tables come from."""
import pytest

from repro.experiments import (
    STORE_KINDS,
    convoy_count_rows,
    dataset,
    effect_eps_rows,
    effect_k_rows,
    effect_m_rows,
    make_store,
    markdown_table,
    phase_rows,
    prevalidation_rows,
    pruning_rows,
    run_k2hop,
    run_vcoda,
)


@pytest.fixture(scope="module")
def trucks_test():
    return dataset("trucks", "test")


class TestRegistry:
    @pytest.mark.parametrize("name", ["trucks", "tdrive", "brinkhoff"])
    def test_datasets_materialize(self, name):
        ds = dataset(name, "test")
        assert ds.n_points > 1000
        assert ds.eps_ref > 0
        assert len(ds.k_grid(6)) == 6
        assert all(k >= 4 for k in ds.k_grid())

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset("nyc-taxi")

    def test_k_grid_monotone(self, trucks_test):
        grid = trucks_test.k_grid(6)
        assert grid == sorted(grid)

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_store_kinds(self, kind, trucks_test):
        s = make_store(kind, trucks_test.df)
        assert s.total_points() == trucks_test.n_points
        if hasattr(s, "close"):  # a FileStore holds nothing to release
            s.close()


class TestRunners:
    def test_run_k2hop_returns_metrics(self, trucks_test):
        sec, res = run_k2hop(trucks_test.df, "file", 3, 20, trucks_test.eps_ref)
        assert sec > 0
        assert res.points_processed > 0

    def test_run_vcoda_agrees(self, trucks_test):
        _, res = run_k2hop(trucks_test.df, "file", 3, 20, trucks_test.eps_ref)
        _, out = run_vcoda(trucks_test.df, 3, 20, trucks_test.eps_ref)
        assert out == res.convoys


class TestRowGenerators:
    def test_pruning_rows_shape(self, trucks_test):
        row = pruning_rows(trucks_test, ms=(3,), n_k=2, eps_factors=(1.0,))
        assert row["min_processed"] <= row["max_processed"]
        assert row["min_pruning_pct"] <= row["max_pruning_pct"]
        assert row["total_points"] == trucks_test.n_points

    def test_effect_k_rows(self, trucks_test):
        rows = effect_k_rows(trucks_test, n_k=2, include_vcoda=False)
        assert [r["k"] for r in rows] == trucks_test.k_grid(2)
        assert all(f"k2-{k}_s" in rows[0] for k in STORE_KINDS)

    def test_effect_m_rows(self, trucks_test):
        rows = effect_m_rows(trucks_test, ms=(3, 6), include_vcoda=False)
        assert [r["m"] for r in rows] == [3, 6]

    def test_effect_eps_rows(self, trucks_test):
        rows = effect_eps_rows(trucks_test, eps_factors=(1.0,), include_vcoda=False)
        assert rows[0]["eps"] == trucks_test.eps_ref

    def test_phase_rows(self, trucks_test):
        rows = phase_rows(trucks_test, n_k=2, store_kind="file")
        assert {"benchmark", "hwmt", "merge"} <= set(rows[0])

    def test_prevalidation_rows(self, trucks_test):
        rows = prevalidation_rows(trucks_test, n_k=2)
        for r in rows:
            assert r["k2_prevalidation"] >= 0
            assert r["vcoda_prevalidation"] >= 0

    def test_convoy_count_rows(self):
        rows = convoy_count_rows(n_counts=(0, 2), store_kinds=("file",))
        assert rows[0]["n_planted"] == 0
        assert rows[1]["n_convoys_found"] >= 2


class TestMarkdown:
    def test_renders(self):
        md = markdown_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2.5 |" in md
        assert "| 3 | 4 |" in md

    def test_empty(self):
        assert markdown_table([]) == "(no rows)"

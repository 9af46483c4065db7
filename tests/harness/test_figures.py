"""Tests for the figure grids and the views read off them, at test scale."""

import pytest

from repro.errors import ConfigError
from repro.harness import (
    ablation,
    headline_claims,
    run_sweep,
    sequential_baseline,
    setup_for,
)
from repro.harness.figures import best, steps, total_improvement


def figure(name):
    return run_sweep(setup_for(name, "test"))


@pytest.fixture(scope="module")
def fig4():
    return figure("fig4")


class TestSetupLookup:
    def test_all_figures_all_scales(self):
        for fig in ("fig4", "fig5", "fig6"):
            for scale in ("test", "quick", "full"):
                s = setup_for(fig, scale)
                assert s.figure == fig
                assert s.scale == scale
                assert s.algorithms

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            setup_for("fig9", "test")

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            setup_for("fig4", "huge")

    def test_describe(self):
        assert "fig4" in setup_for("fig4", "test").describe()


class TestFigure4:
    SETUP = setup_for("fig4", "test")

    def test_covers_cross_product(self, fig4):
        assert len(fig4.cells) == \
            len(self.SETUP.algorithms) * len(self.SETUP.chunk_sizes)

    def test_series_per_algorithm(self, fig4):
        for alg in self.SETUP.algorithms:
            assert [c.result.chunk_size for c in fig4.done(algorithm=alg)] \
                == self.SETUP.chunk_sizes

    def test_all_runs_conserve_nodes(self, fig4):
        for c in fig4.cells:
            assert c.ok and c.result.total_nodes == c.oracle

    def test_markdown_is_a_pivot_with_the_row_best_bold(self, fig4):
        out = fig4.markdown()
        assert f"| k | {' | '.join(self.SETUP.algorithms)} |" in out
        rows = [l for l in out.splitlines() if l.startswith("| ")][1:]
        assert len(rows) == len(self.SETUP.chunk_sizes)
        assert all(row.count("**") == 2 for row in rows)

    def test_to_dict_roundtrippable(self, fig4):
        d = fig4.to_dict()
        assert d["scale"] == "test"
        assert len(d["runs"]) == len(fig4.cells)
        assert all("efficiency" in r for r in d["runs"])

    def test_cell_lookups(self, fig4):
        alg, k = self.SETUP.algorithms[0], self.SETUP.chunk_sizes[0]
        r = fig4.cell(algorithm=alg, chunk_size=k).result
        assert (r.algorithm, r.chunk_size) == (alg, k)
        top = best(fig4, alg)
        assert top.result.nodes_per_sec == max(
            c.result.nodes_per_sec for c in fig4.done(algorithm=alg))
        with pytest.raises(KeyError):
            fig4.cell(algorithm="upc-distmem", chunk_size=99999)
        with pytest.raises(KeyError):
            best(fig4, "nonexistent")


class TestFigure5And6:
    def test_figure5_threads_axis(self):
        fig = figure("fig5")
        rows = [l for l in fig.markdown().splitlines()
                if l.startswith("| ")][1:]
        assert [int(row.split(" | ")[0][2:]) for row in rows] == \
            setup_for("fig5", "test").thread_counts

    def test_figure6_uses_altix(self):
        fig = figure("fig6")
        assert all(c.result.machine_name == "altix" for c in fig.cells)


class TestAblationAndClaims:
    """The ablation and the headline claims read off a figure's runs."""

    def test_ablation_reuses_figure4_runs(self, fig4):
        ab = ablation(fig4)
        assert [c.where["algorithm"] for c in ab.cells] == [
            "upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem"]
        for c in ab.cells:  # same cells, no re-run
            assert c is best(fig4, c.where["algorithm"])
        assert ab.scale == fig4.scale
        assert len(steps(ab)) == 3
        assert total_improvement(ab) > 0
        assert "**total**" in ab.markdown()
        assert [row["algorithm"] for row in ab.to_dict()["runs"]] == [
            c.where["algorithm"] for c in ab.cells]

    def test_claims_reuse_figure5_top_point(self):
        fig5 = figure("fig5")
        claims = headline_claims(fig5)
        top_threads = setup_for("fig5", "test").thread_counts[-1]
        assert claims.cells == [fig5.cell(algorithm="upc-distmem",
                                          threads=top_threads)]
        out = claims.markdown()
        assert "parallel efficiency" in out
        assert "85,000" in out

    def test_sequential_baseline_table(self):
        table = sequential_baseline()
        out = table.markdown()
        assert "| kittyhawk | 2.39 | 2.39 |" in out
        # a cell with no run: its row holds the rates, no run counts
        row = table.to_dict()["runs"][1]
        assert row["platform"] == "kittyhawk" and row["ok"]
        assert row["paper_mnodes_per_s"] == 2.39
        assert "total_nodes" not in row
        assert "| altix | 1.12 | 1.12 |" in out

"""Tests for the figure renderers at test scale."""

import pytest

from repro.errors import ConfigError
from repro.harness import (
    ablation,
    figure4,
    figure5,
    figure6,
    headline_claims,
    sequential_baseline,
    setup_for,
)


@pytest.fixture(scope="module")
def fig4():
    return figure4(scale="test")


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
    def test_covers_cross_product(self, fig4):
        setup = fig4.sweep.setup
        assert len(fig4.sweep.runs) == \
            len(setup.algorithms) * len(setup.chunk_sizes)

    def test_series_per_algorithm(self, fig4):
        for alg in fig4.sweep.setup.algorithms:
            assert [r.chunk_size for r in fig4.sweep.series(alg)] == \
                fig4.sweep.setup.chunk_sizes

    def test_all_runs_conserve_nodes(self, fig4):
        expected = fig4.sweep.expected_nodes
        for r in fig4.sweep.runs:
            assert r.total_nodes == expected

    def test_markdown_is_a_pivot_with_the_row_best_bold(self, fig4):
        out = fig4.markdown()
        setup = fig4.sweep.setup
        assert f"| k | {' | '.join(setup.algorithms)} |" in out
        rows = [l for l in out.splitlines() if l.startswith("| ")][1:]
        assert len(rows) == len(setup.chunk_sizes)
        assert all(row.count("**") == 2 for row in rows)

    def test_to_dict_roundtrippable(self, fig4):
        d = fig4.to_dict()
        assert d["figure"] == "fig4"
        assert len(d["runs"]) == len(fig4.sweep.runs)
        assert all("efficiency" in r for r in d["runs"])

    def test_sweep_lookup_helpers(self, fig4):
        setup = fig4.sweep.setup
        r = fig4.sweep.get(setup.algorithms[0],
                           chunk_size=setup.chunk_sizes[0])
        assert r.algorithm == setup.algorithms[0]
        best = fig4.sweep.best(setup.algorithms[0])
        assert best.nodes_per_sec == max(
            x.nodes_per_sec for x in fig4.sweep.series(setup.algorithms[0]))
        with pytest.raises(KeyError):
            fig4.sweep.get("upc-distmem", chunk_size=99999)
        with pytest.raises(KeyError):
            fig4.sweep.best("nonexistent")


class TestFigure5And6:
    def test_figure5_threads_axis(self):
        fig = figure5(scale="test")
        rows = [l for l in fig.markdown().splitlines()
                if l.startswith("| ")][1:]
        assert [int(row.split(" | ")[0][2:]) for row in rows] == \
            fig.sweep.setup.thread_counts

    def test_figure6_uses_altix(self):
        fig = figure6(scale="test")
        assert all(r.machine_name == "altix" for r in fig.sweep.runs)


class TestAblationAndClaims:
    """The ablation and the headline claims read off a figure's runs."""

    def test_ablation_reuses_figure4_runs(self, fig4):
        ab = ablation(fig4)
        assert set(ab.best) == {"upc-sharedmem", "upc-term",
                                "upc-term-rapdif", "upc-distmem"}
        for alg, run in ab.best.items():
            assert run is fig4.sweep.best(alg)  # same objects, no re-run
        assert len(ab.improvements()) == 3
        assert ab.total_improvement > 0
        assert "**total**" in ab.markdown()

    def test_claims_reuse_figure5_top_point(self):
        fig5 = figure5(scale="test")
        claims = headline_claims(fig5)
        top_threads = fig5.sweep.setup.thread_counts[-1]
        assert claims.run is fig5.sweep.get("upc-distmem",
                                            threads=top_threads)
        out = claims.markdown()
        assert "parallel efficiency" in out
        assert "85,000" in out

    def test_sequential_baseline_table(self):
        out = sequential_baseline().markdown()
        assert "| kittyhawk | 2.39 | 2.39 |" in out
        assert "| altix | 1.12 | 1.12 |" in out

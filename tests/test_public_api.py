"""The public API surface: what README and examples rely on."""

import pytest

import repro


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_quickstart_snippet_from_readme():
    """The README quickstart must keep working verbatim (scaled down)."""
    from repro import run_experiment, TreeParams

    result = run_experiment(
        "upc-distmem",
        tree=TreeParams.binomial(b0=64, q=0.48, seed=1),
        threads=16,
        preset="kittyhawk",
        chunk_size=8,
        verify=True,
    )
    assert "upc-distmem" in result.summary()
    assert 0.0 < result.efficiency <= 1.0


def test_algorithm_registry_matches_figure3():
    assert set(repro.ALGORITHMS) == {
        "upc-sharedmem", "upc-term", "upc-term-rapdif", "upc-distmem",
        "mpi-ws", "upc-distmem-hier", "ws-fencefree", "tree-split",
    }
    # FIGURE_ORDER covers the paper's five; the extensions are extra.
    assert set(repro.FIGURE_ORDER) <= set(repro.ALGORITHMS)


def test_error_hierarchy():
    assert issubclass(repro.SimulationError, repro.ReproError)
    assert issubclass(repro.DeadlockError, repro.SimulationError)
    assert issubclass(repro.EventLimitExceeded, repro.SimulationError)
    assert issubclass(repro.ProtocolError, repro.ReproError)
    assert issubclass(repro.ConfigError, repro.ReproError)


def test_paper_tree_constants_exported():
    assert repro.T1_PAPER.b0 == 2000
    assert repro.T3_PAPER.seed == 559


def test_presets_exported():
    assert repro.get_preset("topsail") is repro.TOPSAIL
    assert set(repro.PRESETS) == {"kittyhawk", "topsail", "altix",
                                  "sharedmem", "numa-2x", "numa-8x"}


def test_obs_surface():
    """The observability layer's public names (docs/observability.md)."""
    import repro.obs as obs

    assert repro.TraceSink is obs.TraceSink
    expected = {
        "TraceSink", "ObsEvent", "EVENT_SCHEMA", "FIELD_TYPES",
        "to_chrome_trace", "dump_chrome_trace",
        "to_jsonl_lines", "dump_jsonl", "load_jsonl", "state_occupancy",
        "steal_matrix", "steal_latencies", "steal_latency_histogram",
        "termination_breakdown", "idle_summary", "service_summary",
        "render_trace_report",
    }
    assert set(obs.__all__) == expected
    for name in expected:
        assert hasattr(obs, name), f"repro.obs.{name} missing"
    # The sink is the one tracer class: repro.sim no longer has one.
    import repro.sim as sim

    assert not {"Tracer", "TraceRecord", "NULL_TRACER"} & set(dir(sim))

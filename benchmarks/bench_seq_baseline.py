"""E1 -- Sect. 4.1 sequential baseline.

The paper reports per-platform sequential rates (2.10 / 2.39 / 1.12
Mnodes/s), which are *inputs* to our cost model; this bench prints that
table and measures the host's real sequential traversal rate for each
RNG engine (the paper notes the rate "primarily reflects the speed at
which the processor can calculate SHA-1 hash evaluations").
"""

import pytest

from repro import TreeParams, count_tree
from repro.harness.figures import sequential_baseline

TREE_SHA1 = TreeParams.binomial(b0=200, m=2, q=0.495, seed=1)


def test_sequential_baseline_table(capsys):
    table = sequential_baseline()
    with capsys.disabled():
        print("\n=== E1: sequential rates (model inputs vs paper) ===")
        print(table)
    assert "2.39" in table


@pytest.mark.parametrize("engine", ["sha1", "splitmix"])
def test_sequential_traversal_rate(benchmark, engine, capsys):
    tree = TREE_SHA1.with_engine(engine)
    stats = benchmark(count_tree, tree)
    rate = stats.n_nodes / stats.host_seconds
    benchmark.extra_info["nodes"] = stats.n_nodes
    benchmark.extra_info["host_mnodes_per_sec"] = round(rate / 1e6, 3)
    with capsys.disabled():
        print(f"\n[{engine}] host sequential rate: {rate / 1e6:.3f} Mnodes/s "
              f"({stats.n_nodes:,} nodes)")
    assert stats.n_nodes > 0

#!/usr/bin/env python
"""Design-space playground: the reproduction's ablation knobs in one place.

Four one-factor experiments on the same workload:

1. steal-one vs steal-half on the distmem protocol (isolates rapid
   diffusion, Sect. 3.3.2);
2. hardware one-sided vs active-message runtime (Sect. 6.1);
3. flat vs hierarchical victim selection (Sect. 6.2);
4. the victim polling interval.

    python examples/ablation_playground.py
"""

from repro import KITTYHAWK, TreeParams, WsConfig, run_experiment
from repro.harness.ascii_plot import series_table

TREE = TreeParams.binomial(b0=500, m=2, q=0.499, seed=0)
THREADS = 16


def run(label, algorithm="upc-distmem", net=None, **cfg_kw):
    config = WsConfig(chunk_size=cfg_kw.pop("chunk_size", 8), **cfg_kw)
    res = run_experiment(algorithm, tree=TREE, threads=THREADS,
                         net=net, preset="kittyhawk", config=config,
                         verify=True)
    return [label, round(res.nodes_per_sec / 1e6, 2),
            round(res.efficiency * 100, 1), res.stats.steals_ok]


def main() -> None:
    print(f"tree: {TREE.describe()}, {THREADS} threads, kittyhawk model\n")
    rows = [
        run("distmem (native: steal-half)"),
        run("distmem forced steal-one", steal_policy="one"),
        run("distmem on AM runtime (no HW RDMA)",
            net=KITTYHAWK.with_overrides(am_mode=True)),
        run("distmem-hier (on-node first)", algorithm="upc-distmem-hier"),
        run("distmem poll_interval=4", poll_interval=4),
        run("distmem poll_interval=128", poll_interval=128),
    ]
    print(series_table(["variant", "Mnodes/s", "eff_%", "steals"], rows))
    print("\nEach knob isolates one design decision from the paper; see"
          "\n`repro-uts experiment X1 X2 X3 X4` for the checked versions.")


if __name__ == "__main__":
    main()

"""The sweep checksum the ledger's pass checksum is held to.

Host speed is measured by the ledger (``bench/run.py``); this module
holds only the SHA-1 that the benchmark's self-test
(``bench/test_bench.py``) compares ``workloads.checksum`` against, over
the same sweep's ``RunResult`` rows.
"""

import hashlib


def results_checksum(runs) -> str:
    """SHA-1 over every run's schedule-identity fields.

    Everything here is a deterministic function of the configuration:
    two engines producing the same checksum executed the same schedule.
    """
    h = hashlib.sha1()
    for r in runs:
        h.update((f"{r.algorithm},{r.n_threads},{r.chunk_size},"
                  f"{r.total_nodes},{r.engine_events},"
                  f"{r.sim_time!r}\n").encode())
    return h.hexdigest()

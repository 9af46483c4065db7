"""The inlined fault-free phases are bit-identical to the generic ones.

``algo._fast`` (``machine.faults is None``) lets the hot loops yield
precomputed Timeouts, read staleable slots directly and -- in the
lock-based working phase -- run the own-lock transaction inline instead
of through ``release``/``reacquire``.  Every such shortcut is claimed to
execute the generic path's exact schedule; this file pins the claim for
all eight variants by forcing ``_fast`` off on a fault-free run and
comparing against the default run.  (With the extension built the
default run is the compiled one, so the same cells also pin C against
the generic generators.)
"""

import dataclasses

import pytest

from repro import ALGORITHMS, TreeParams, run_experiment
from repro.ws.algorithms.base import AlgorithmBase

TREE = TreeParams.binomial(b0=64, m=2, q=0.48, seed=1)


@pytest.fixture
def generic_phases(monkeypatch):
    """Force ``_fast`` to False on every algorithm instance: a data
    descriptor on the class shadows the instance attribute, so the
    constructor's assignment is ignored and every read -- algorithms
    and termination strategies alike -- sees False.  Returns the list
    of reads, so a test can prove the override was consulted."""
    reads = []

    def fget(self):
        reads.append(type(self).name)
        return False

    monkeypatch.setattr(AlgorithmBase, "_fast",
                        property(fget, lambda self, value: None),
                        raising=False)
    return reads


def _fingerprint(result):
    return (
        result.engine_events,
        result.sim_time,
        result.total_nodes,
        [(dataclasses.asdict(st) | {"timer": None}, st.timer.times,
          st.timer.transitions) for st in result.per_thread],
    )


def _run(variant, chunk_size):
    return _fingerprint(run_experiment(variant, TREE, threads=8,
                                       chunk_size=chunk_size))


@pytest.mark.parametrize("chunk_size", [2, 4])
@pytest.mark.parametrize("variant", sorted(ALGORITHMS))
def test_generic_phases_execute_the_inlined_schedule(
        variant, chunk_size, request):
    inlined = _run(variant, chunk_size)
    assert inlined[2] == 3009
    reads = request.getfixturevalue("generic_phases")
    generic = _run(variant, chunk_size)
    assert variant in reads, "the _fast override was never consulted"
    assert generic == inlined

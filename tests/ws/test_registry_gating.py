"""Per-variant policy gating: unsupported pairings fail closed.

Every algorithm declares, per policy axis, the keys it can host as a
tuple whose first entry is the policy it natively runs
(``steal_policies`` / ``victim_policies`` / ``termination_policies``),
plus the fault classes it tolerates (``fault_classes``).
:meth:`~repro.ws.algorithms.base.AlgorithmBase.refusal` is the one
rule over them: a config naming anything outside those sets must raise
:class:`~repro.errors.ConfigError` at construction, and the error must
name the registered alternatives -- a user staring at a traceback
should not need the source to find a legal value.
"""

import pytest

from repro import TreeParams, WsConfig, run_experiment
from repro.errors import ConfigError
from repro.ws.algorithms import ALGORITHMS, get_algorithm
from repro.ws.registry import AXES

TREE = TreeParams.binomial(b0=20, q=0.3, m=2, seed=2)

#: Every variant's native ``(steal, victim, termination)`` triple.
NATIVE = {
    "upc-sharedmem": ("one", "uniform", "cancelable-barrier"),
    "upc-term": ("one", "uniform", "streamlined"),
    "upc-term-rapdif": ("half", "uniform", "streamlined"),
    "upc-distmem": ("half", "uniform", "streamlined"),
    "upc-distmem-hier": ("half", "hierarchical", "streamlined"),
    "mpi-ws": ("one", "uniform", "token"),
    "ws-fencefree": ("one", "uniform", "streamlined"),
    "tree-split": ("one", "uniform", "none"),
}


def _native(name):
    cls = get_algorithm(name)
    return tuple(getattr(cls, f"{axis}_policies")[0] for axis in AXES)


# -- the first key of each axis is the native policy -----------------

def test_every_algorithm_has_a_native_triple():
    assert set(NATIVE) == set(ALGORITHMS)


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_first_keys_are_the_native_triple(name):
    assert _native(name) == NATIVE[name]


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_every_hosted_key_is_registered(name):
    cls = get_algorithm(name)
    for axis, table in AXES.items():
        keys = getattr(cls, f"{axis}_policies")
        assert keys and len(set(keys)) == len(keys)
        assert set(keys) <= set(table)


@pytest.mark.parametrize("name", sorted(NATIVE))
def test_the_instance_steals_by_its_first_key(name):
    from repro.net.presets import get_preset
    from repro.pgas.machine import Machine
    from repro.uts.tree import Tree
    from repro.ws.registry import STEAL_AMOUNTS

    machine = Machine(threads=2, net=get_preset("kittyhawk"))
    algo = get_algorithm(name)(machine, Tree(TREE), WsConfig(chunk_size=4))
    assert algo.steal_amount is STEAL_AMOUNTS[NATIVE[name][0]]


def test_unknown_variant_names_alternatives():
    with pytest.raises(ConfigError) as exc:
        get_algorithm("upc-distemm")
    assert "ws-fencefree" in str(exc.value)
    assert "tree-split" in str(exc.value)


# -- native triples run; hosted overrides run ------------------------

@pytest.mark.parametrize("name", sorted(NATIVE))
def test_native_triple_is_accepted_explicitly(name):
    """Spelling a variant's own triple out in the config must be a
    no-op, not a gating error."""
    steal, victim, termination = _native(name)
    cfg = WsConfig(chunk_size=4, steal_policy=steal,
                   victim_policy=victim, termination_policy=termination)
    res = run_experiment(name, tree=TREE, threads=4, config=cfg,
                         verify=True)
    assert res.total_nodes > 0


# -- unsupported pairings fail closed, naming alternatives -----------

@pytest.mark.parametrize("name,kw,alternatives", [
    ("ws-fencefree", {"steal_policy": "half"}, "['one']"),
    ("ws-fencefree", {"steal_policy": "all"}, "['one']"),
    ("ws-fencefree", {"termination_policy": "token"}, "['streamlined']"),
    ("ws-fencefree", {"termination_policy": "cancelable-barrier"},
     "['streamlined']"),
    ("tree-split", {"steal_policy": "half"}, "['one']"),
    ("tree-split", {"victim_policy": "hierarchical"}, "['uniform']"),
    ("tree-split", {"termination_policy": "streamlined"}, "['none']"),
    ("tree-split", {"termination_policy": "token"}, "['none']"),
    ("mpi-ws", {"steal_policy": "half"}, "['one']"),
    ("mpi-ws", {"steal_policy": "all"}, "['one']"),
])
def test_unsupported_pairing_raises_naming_alternatives(
        name, kw, alternatives):
    cfg = WsConfig(chunk_size=4, **kw)
    with pytest.raises(ConfigError) as exc:
        run_experiment(name, tree=TREE, threads=4, config=cfg)
    msg = str(exc.value)
    assert name in msg
    assert alternatives in msg
    (bad,) = kw.values()
    assert repr(bad) in msg


def test_gate_survives_with_chunk_size_derivation():
    """``with_chunk_size`` re-runs config validation and the derived
    config still carries the unsupported policy -- the gate must fire
    on the derived config too (the sweep harness derives configs this
    way)."""
    cfg = WsConfig(chunk_size=8, steal_policy="half")
    derived = cfg.with_chunk_size(2)
    assert derived.chunk_size == 2
    with pytest.raises(ConfigError, match=r"ws-fencefree.*steal"):
        run_experiment("ws-fencefree", tree=TREE, threads=4,
                       config=derived)


def test_with_chunk_size_rejects_unregistered_policy_early():
    """A policy outside the global registry dies at config time, not
    at algorithm construction."""
    with pytest.raises(ConfigError):
        WsConfig(chunk_size=8, steal_policy="most")


# -- docs/protocols.md's table is the gate's -------------------------

def _doc_table():
    from pathlib import Path

    doc = (Path(__file__).resolve().parents[2] / "docs"
           / "protocols.md").read_text()
    section = doc.split("### What each variant accepts")[1].split("\n#")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, *cells = (c.strip() for c in line.strip("|").split("|"))
            rows[name.strip("`")] = cells
    return rows


def _keys(cell):
    return tuple(key.strip("*") for key in cell.split(", "))


def test_the_docs_acceptance_table_is_the_gates():
    """One row per variant and ``service-ws``: each axis lists the keys
    the variant hosts, native first and bold, and exactly those keys
    and fault classes pass :meth:`refusal` -- every variant x
    registered key x fault class asked."""
    from repro.harness.checked import FAULT_PROBES
    from repro.faults.plan import parse_fault_spec
    from repro.service.algorithm import ServiceAlgorithm

    classes = {**ALGORITHMS, "service-ws": ServiceAlgorithm}
    rows = _doc_table()
    assert list(rows) == [*NATIVE, "service-ws"]
    for name, cls in classes.items():
        cells = rows[name]
        for cell, (axis, table) in zip(cells, AXES.items()):
            hosted = getattr(cls, f"{axis}_policies")
            assert _keys(cell) == hosted, (name, axis)
            assert cell.startswith(f"**{hosted[0]}**"), (name, axis)
            assert {key for key in table if cls.refusal(
                WsConfig(**{f"{axis}_policy": key})) is None} \
                == set(hosted), (name, axis)
        admitted = [c for c, spec in FAULT_PROBES.items()
                    if cls.refusal(WsConfig(
                        faults=parse_fault_spec(spec, seed=0))) is None]
        assert cells[3] == ("all" if admitted == list(FAULT_PROBES)
                            else ", ".join(admitted)), name
        # token and none mark detection fused into a variant's own loop:
        # refusing them narrows nothing
        narrowed = admitted != list(FAULT_PROBES) or any(
            set(table) - set(getattr(cls, f"{axis}_policies"))
            - {"token", "none"} for axis, table in AXES.items())
        assert bool(cells[4]) == narrowed, name


# -- what each variant fuses ---------------------------------------------

MEMBERS = ("work", "search", "claim", "barrier", "idle")


def _gate(name, idle="poll"):
    """The fusion gate's answer for ``name`` natively configured, on a
    machine whose run loop counts as compiled (a stand-in for
    ``_core.run``, so the table is checked on every host)."""
    from repro.harness.runner import tree_for
    from repro.net.presets import KITTYHAWK
    from repro.pgas.machine import Machine
    from repro.service import ServiceConfig, ServiceRuntime
    from repro.service.algorithm import ServiceAlgorithm
    from repro.service.tasks import ServiceWorkload

    machine = Machine(threads=4, net=KITTYHAWK)
    machine.sim._crun = machine.sim._crun or (lambda sim, until: None)
    cfg = WsConfig(chunk_size=2, idle_strategy=idle)
    if name == "service-ws":
        service = ServiceConfig(n_tasks=20)
        workload = ServiceWorkload(service.inner_params(), seed=service.seed)
        algo = ServiceAlgorithm(machine, workload, cfg)
        ServiceRuntime(service, machine, algo, workload)
    else:
        algo = get_algorithm(name)(machine, tree_for(TREE), cfg)
    return algo._fusion_gate()


def _fusion_doc_table():
    from pathlib import Path

    doc = (Path(__file__).resolve().parents[2] / "docs"
           / "performance.md").read_text()
    section = doc.split("## What each variant fuses")[1].split("\n#")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, *cells = (c.strip() for c in line.strip("|").split("|"))
            rows[name.strip("`")] = dict(zip(MEMBERS, cells))
    return rows


def test_the_docs_fusion_table_is_the_gate():
    """One row per variant and ``service-ws``: a member is ✓ where the
    gate binds it, its decline reason word for word where it does not,
    and — where the variant has no such member."""
    rows = _fusion_doc_table()
    assert list(rows) == [*NATIVE, "service-ws"]
    for name, cells in rows.items():
        answer = _gate(name)
        assert cells == {m: "—" if m not in answer
                         else "✓" if answer[m] is None else answer[m]
                         for m in MEMBERS}, name


@pytest.mark.parametrize("name", [*NATIVE, "service-ws"])
def test_the_idle_gate_declines_only_the_idle_wait(name):
    """Under park the compiled phases take the idle gate as a switch:
    the answer is the polling one, but for mpi-ws's idle wait, which
    parks in a blocking ``recv`` instead."""
    poll, park = _gate(name), _gate(name, "park")
    if name == "mpi-ws":
        assert poll["idle"] is None and park.pop("idle") is not None
        poll.pop("idle")
    assert park == poll

"""Structural guards over ``src/repro/`` (AST only -- ``_core.c`` is
read as text -- with no imports of the code under test beyond the one
MRO check, the golden corpus's cell list and one fresh interpreter;
about a second, no extension needed).

Each assertion pins a property a past PR paid to establish, so the day
a copy or an ungated format comes back every CI leg fails -- instead of
the next re-anchor finding it:

* Figure 1's Working state is written once
  (``AlgorithmBase.working_phase``); a variant states what differs as
  switches the loop reads, never as a second loop.
* So are the Searching state (``AlgorithmBase.search_phase``) and
  mpi-ws's idle loop (``MpiWorkStealing.idle_phase``): the idle gate
  and the fault runtime are switches read before the loop starts, and
  no probe is priced from a per-rank cost row (O(n^2) a machine).
* Faulted and fault-free runs take one path: no ``_fast`` switch under
  ``ws/`` picks an inlined or a generic copy, no ``release`` /
  ``reacquire`` transaction under ``ws/algorithms/`` stands beside
  the Working state's lock bracket, and mpi-ws keeps no ``faulty``
  copy of ``faults_rt is not None``.
* A trace record is its values, never a formatted string
  (``docs/observability.md``, "Event schema"): no ``.emit(`` /
  ``.trace(`` call takes an f-string or ``.format`` argument, and the
  string tracer (``repro/sim/trace.py``) and the parser that read its
  details back (``parse_detail``) stay gone.
* ``ws-fencefree`` has no locks, so it does not inherit the lock-based
  machinery (and with it the lock-based fusion gate).
* The compiled side has one Working state too: ``_core.c`` expands
  three phase types, one ``_build_c_phase`` binds ``WorkPhase`` for
  every protocol, and under ``ws/`` only ``algorithms/base.py`` (whose
  ``AlgorithmBase.__init__`` resolves ``_core`` for every binder)
  reaches for the compiled core.
* One fusion gate: no "is this method still stock" identity test
  against ``AlgorithmBase``, ``LockBasedAlgorithm`` or ``ProbeOrder``
  is left; the ``_COMPILED`` tables name the methods and one helper
  (``overridden``) compares them.
* Large machines run compiled: nothing under ``src/`` picks an event
  queue by thread count any more (``queue="auto"`` is the heap, which
  the compiled loop drives), and the idle gate is no fusion gate.
* A service stream has one expansion path: the cached task forest.
  Nothing under ``service/`` expands an inner tree node by node again,
  and a task's drain is detected in exactly two places -- the visit
  scan and the fail-stop loss hook.
* The monitor sums the duplication ledger at one site, behind the
  written-since test (``docs/performance.md``, "Faults, tracer and
  monitor"): a second ``sum(....values())`` under ``check/`` is
  the per-emit walk over ``dup_extra`` coming back.
* numpy and scipy are off the import path and the run path
  (``docs/performance.md``, "Cold start"): the package imports them
  only inside the functions that use them, none of them a run's.
* A tree has one builder per backend and one layout: the compiled
  kernel or the scalar loop, both emitting ``(delta, size)``.  The
  numpy builder (``fastpath/nputs.py``) and the child-count array
  beside ``delta`` stay gone.
* A run is wired once (``harness/runner.py``'s ``_run``): the machine
  and the fault runtime are each built in one function, which both
  ``run_experiment`` and ``run_service`` call.  Every run, a checked
  cell too, resolves its backend one way: no call under ``src/`` passes
  ``fastpath=`` a literal.
* Figure 1's Stealing state is written once
  (``AlgorithmBase.try_steal``): a variant supplies its claim, and only
  the base and mpi-ws (whose outcome arrives later, in its idle loop)
  record a ``steal.req``.
* The cost charging a compiled run still does in Python is flat
  (``docs/performance.md``, "PGAS, locks and messages"): a
  ``Message`` is a ``NamedTuple``, not a dataclass; no cost method of
  ``NetworkModel`` calls another method (one locality test over
  precomputed constants); and no ``_claim`` charges through a
  ``ctx.compute(`` generator.
* A rank pays only for what it touches (``docs/performance.md``,
  "Memory per rank"): ``StreamRng.__init__`` builds no
  Mersenne Twister, victim segments are ``array('i')`` slices and never
  lists (nor does ``_core.c`` read them as lists), and neither a shared
  region nor a lock queue is a deque.
* A schedule is pinned by the golden corpus (``tests/golden``), not by
  a frozen copy of the parent's code: no ``*_equals_reference.py``
  comes back under ``tests/``, and the corpus keeps cells for every
  variant and ``service-ws`` polling and parked, clean and faulted,
  traced and untraced (parked and faulted where a fail-stop plan is
  admitted at all).
* Each paper claim is stated once, in the experiment registry
  (``harness/experiments.py``): the shape-assert benchmarks
  (``benchmarks/``) and the report generator's second copy of the
  targets (``harness/report_md.py``) stay gone, as do the five tools
  that typed E9-E14's tables by hand (``fault_matrix.py``,
  ``bench_scale.py``, ``bench_service.py``, ``scenario_matrix.py``,
  ``e14_ablation.py``) and their four committed reports;
  EXPERIMENTS.md's generated blocks are exactly the registry's ids, and
  each E1-E6 and E9-E15 section names its one ``repro-uts experiment
  Ek`` command.
* A checked cell runs through one loop: the schedule fuzzer
  (``tools/check_schedules.py``), ``harness/validate.py`` and the
  fuzzer's committed report stay gone (their grids are E15's),
  ``validate`` is no ``repro-uts`` subcommand, and ``final_check()`` is
  called at one site across ``src/`` and ``tools/``:
  ``check/runner.py:_checked``.
* A variant's acceptance rule is stated once
  (``AlgorithmBase.refusal``): each variant declares its steal, victim
  and termination keys as tuples (native first) plus its fault
  classes, only ``ws/algorithms/base.py`` reads them, and the generic
  registry class, the test-only triple table and the grids' hand-made
  re-derivations (``GATE_RETIRED``) stay gone.
* Host speed has one record, the ledger (``bench/run.py``): the engine
  benchmark's committed baseline stays gone (``RETIRED``), and
  ``docs/performance.md`` is a guide under 600 lines that cites only
  metrics ``BENCHMARK.json`` declares.
* A registry grid runs one way (``harness/sweep.py:run_cells``): every
  entry that runs simulations hands its cells to ``execute_jobs`` and
  returns one ``CellTable``; the per-shape result classes
  (``GRID_RESULTS_RETIRED``) stay gone, and the registry
  (``harness/experiments.py``) imports no ``run_experiment`` to loop
  over cells by itself.
* ``WsConfig``, ``ServiceConfig`` and ``FaultPlan`` hold only values a
  caller sets (``CONFIG_FIELDS``); a value the paper fixes is a module
  constant beside its config, and no name under ``src/`` reads or sets
  a field that became one (``FIELDS_RETIRED``).
"""

import ast
import json
import re
from pathlib import Path

from tests.test_packaging import fresh_interpreter

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions(name):
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
    ]


def test_one_working_phase_definition():
    found = _definitions("working_phase")
    assert len(found) == 1 and found[0].startswith("ws/algorithms/base.py:"), \
        found


def test_faulted_and_fault_free_runs_take_one_path():
    ws = SRC / "ws"
    fast = [f"{path.relative_to(SRC)}:{node.lineno}"
            for path, tree in _modules() if ws in path.parents
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_fast"]
    assert fast == []
    twins = [site for name in ("release", "reacquire")
             for site in _definitions(name)
             if site.startswith("ws/algorithms/")]
    assert twins == []
    assert "faulty" not in (ws / "algorithms" / "mpi_ws.py").read_text()


def _mentions(name):
    return [str(path.relative_to(SRC.parent)) for path in sorted(SRC.rglob("*"))
            if path.suffix in (".py", ".c") and name in path.read_text()]


def test_one_searching_state():
    found = _definitions("search_phase")
    assert len(found) == 1 and found[0].startswith("ws/algorithms/base.py:"), \
        found
    assert _mentions("search_phase_park") == []


def test_one_mpi_ws_idle_loop():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name == "idle_phase" or node.name.startswith("_idle_phase"))
    ]
    assert len(found) == 1 and found[0].startswith("ws/algorithms/mpi_ws.py:"), \
        found
    assert _mentions("_idle_phase") == []


def test_no_per_rank_probe_cost_rows():
    assert _mentions("_ref_row") == []


def test_one_compiled_working_phase_binder():
    found = _definitions("_build_c_phase")
    assert len(found) == 1 and found[0].startswith("ws/algorithms/base.py:"), \
        found


def test_three_compiled_phase_types():
    core = (SRC / "fastpath" / "_core.c").read_text()
    expanded = re.findall(r"^PHASE_TYPE\((\w+),", core, flags=re.MULTILINE)
    assert expanded == ["WorkPhase", "SearchPhase", "IdlePhase"]


def test_only_the_binders_load_the_compiled_core():
    found = sorted({
        str(path.relative_to(SRC / "ws"))
        for path, tree in _modules() if (SRC / "ws") in path.parents
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "load_core"
    })
    assert found == ["algorithms/base.py"]


def test_no_thread_count_knee_picks_the_event_queue():
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*"))
             if path.suffix in (".py", ".c")
             and "AUTO_QUEUE_KNEE" in path.read_text()]
    assert found == []


def test_the_idle_gate_is_not_a_fusion_gate():
    """The gate's first block -- up to the ``return`` that declines
    every member at once -- never reads the idle gate."""
    base = ast.parse((SRC / "ws" / "algorithms" / "base.py").read_text())
    [fn] = [node for node in ast.walk(base)
            if isinstance(node, ast.FunctionDef)
            and node.name == "_fusion_gate"]
    body = fn.body[1:]  # past the docstring
    [cut] = [i for i, stmt in enumerate(body)
             if isinstance(stmt, ast.If)
             and isinstance(stmt.body[0], ast.Return)]
    assert cut > 0
    assert not any(isinstance(n, ast.Attribute) and n.attr == "_gate"
                   for stmt in body[:cut + 1] for n in ast.walk(stmt))


#: The classes whose methods the compiled phases transliterate.
_STOCK_OWNERS = {"AlgorithmBase", "LockBasedAlgorithm", "ProbeOrder"}


def test_one_helper_asks_whether_a_method_is_stock():
    """No ``x is (not) Owner.method`` test against a class whose methods
    the C phases stand in for is left under ``src/``: the ``_COMPILED``
    tables name the methods, and the fusion gate's helper
    (``overridden``) compares them by ``getattr``."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules() for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(side, ast.Attribute)
                and isinstance(side.value, ast.Name)
                and side.value.id in _STOCK_OWNERS
                for side in (node.left, *node.comparators))]
    assert found == []
    text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    for owner in _STOCK_OWNERS:
        assert f"is not {owner}." not in text and f"is {owner}." not in text
    assert _definitions("_fusable") == []
    assert _definitions("_fusion_enabled") == []
    assert [site.split(":")[0] for site in _definitions("_fusion_gate")] \
        == ["ws/algorithms/base.py"]


def test_service_streams_have_one_expansion_path():
    service = SRC / "service"
    for path in sorted(service.glob("*.py")):
        text = path.read_text()
        assert ".inner.children(" not in text, path.name
        assert "_LossSizer" not in text, path.name
    callers = sorted(
        f"{path.name}:{fn.name}"
        for path, tree in _modules() if path.parent == service
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "on_task_drained")
    assert callers == ["tasks.py:batch_expand", "tasks.py:on_nodes_lost"]


def _formats(node: ast.AST) -> bool:
    """An f-string or a ``.format(...)`` call anywhere in ``node``."""
    return any(isinstance(n, ast.JoinedStr)
               or (isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "format")
               for n in ast.walk(node))


def test_no_trace_call_formats_its_fields():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("trace", "_trace", "emit")
        and any(_formats(arg) for arg in
                [*node.args, *(kw.value for kw in node.keywords)])]
    assert found == [], (
        f"{len(found)} trace call(s) format a string argument: {found}")


def test_the_string_tracer_and_its_parser_stay_gone():
    assert not (SRC / "sim" / "trace.py").exists()
    assert _mentions("parse_detail") == []


def test_fencefree_is_not_lock_based():
    from repro.ws.algorithms.fencefree import WsFenceFree
    from repro.ws.algorithms.lock_based import LockBasedAlgorithm
    assert LockBasedAlgorithm not in WsFenceFree.__mro__


def test_the_duplication_ledger_is_summed_at_one_site():
    sums = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        if path.parent.name == "check"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "sum"
        and node.args and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Attribute)
        and node.args[0].func.attr == "values"
    ]
    assert len(sums) == 1 and sums[0].startswith("check/invariants.py:"), sums


def _imports_at_import_time(node: ast.AST, guarded: bool = False):
    """``(module name, inside a try that handles ImportError)`` for
    every import that runs when the module is imported."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    if isinstance(node, ast.Import):
        yield from ((alias.name, guarded) for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield node.module or "", guarded
    elif isinstance(node, ast.Try):
        catches = any(
            isinstance(n, ast.Name) and n.id == "ImportError"
            for handler in node.handlers if handler.type is not None
            for n in ast.walk(handler.type))
        for stmt in node.body:
            yield from _imports_at_import_time(stmt, guarded or catches)
        for stmt in node.handlers + node.orelse + node.finalbody:
            yield from _imports_at_import_time(stmt, guarded)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _imports_at_import_time(child, guarded)


def test_numpy_and_scipy_are_not_imported_at_module_level():
    found = sorted(
        (str(path.relative_to(SRC)), name, guarded)
        for path, tree in _modules()
        for name, guarded in _imports_at_import_time(tree)
        if name.split(".")[0] in ("numpy", "scipy"))
    assert found == []


def test_a_run_imports_no_numpy():
    """``import repro`` never does, and neither does a ``sha1`` run --
    with the extension or without it, whichever builds the tree."""
    done = fresh_interpreter(
        "import sys, repro\n"
        "assert 'numpy' not in sys.modules, 'import repro'\n"
        "from repro.harness.config import T1_TEST\n"
        "repro.run_experiment('upc-distmem', tree=T1_TEST, threads=4,\n"
        "                     chunk_size=4, verify=True)\n"
        "print('numpy' in sys.modules)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"], done.stdout


#: What ``import repro`` and ``from repro import run_experiment`` must
#: not load: the process pool and the harness's registry, renderers
#: and sweep (a run needs none of them).
LAZY = ["concurrent.futures", "multiprocessing", "repro.harness.experiments",
        "repro.harness.figures", "repro.harness.sweep"]

LAZY_SCRIPT = """
import importlib, inspect, sys
import repro
from repro import run_experiment
print(sorted(set(sys.modules) & set(%r)))
for name in ("repro", "repro.harness"):
    package = importlib.import_module(name)
    for attr in package.__all__:
        value = getattr(package, attr)
        home = importlib.import_module(package._HOMES.get(attr, name))
        assert value is getattr(home, attr), (name, attr)
        if inspect.isclass(value) or inspect.isfunction(value):
            defined = sys.modules[value.__module__]
            assert getattr(defined, attr) is value, (name, attr)
    bound = {}
    exec(f"from {name} import *", bound)
    assert set(package.__all__) <= set(bound), (name, "import *")
    assert set(package.__all__) <= set(dir(package)), (name, "dir")
print("resolved")
"""


def test_the_package_imports_its_names_on_first_use():
    """``repro`` and ``repro.harness`` resolve their public names on
    first use (PEP 562): a run's imports stay off the pool and the
    registry, and every ``__all__`` name still resolves, binds under
    ``import *`` and is listed by ``dir()``."""
    done = fresh_interpreter(LAZY_SCRIPT % (LAZY,))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "resolved"], done.stdout


def test_one_tree_builder_per_backend_and_one_layout():
    assert not (SRC / "fastpath" / "nputs.py").exists()
    word = re.compile(r"\b(nputs|vector_expansion_enabled|HAVE_NUMPY|n_kids)\b")
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*"))
             if path.suffix in (".py", ".c") and word.search(path.read_text())]
    assert found == []


def test_a_stream_is_seeded_at_its_first_draw_not_at_construction():
    rng = ast.parse((SRC / "sim" / "rng.py").read_text())
    [init] = [node for cls in ast.walk(rng)
              if isinstance(cls, ast.ClassDef) and cls.name == "StreamRng"
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    calls = [ast.unparse(node.func) for node in ast.walk(init)
             if isinstance(node, ast.Call)]
    assert not any("Random" in call for call in calls), calls


#: Where victim segments are built: the cached rank array and the two
#: probe orders' ``others`` / ``segments``.
SEGMENT_BUILDERS = ("_ranks", "others", "segments")


def test_no_victim_segment_is_built_as_a_list():
    """Inside the builders the one list is the outer one of
    ``segments()``: no ``list(...)``, comprehension or nested list."""
    found, seen = [], []
    for path, tree in _modules():
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name in SEGMENT_BUILDERS):
                continue
            seen.append(f"{path.relative_to(SRC)}:{fn.name}")
            found += [
                f"{path.relative_to(SRC)}:{node.lineno}"
                for node in ast.walk(fn)
                if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple"))
                or isinstance(node, (ast.ListComp, ast.GeneratorExp))
                or (isinstance(node, ast.List)
                    and any(isinstance(e, ast.List) for e in node.elts))]
    assert sorted(seen) == ["ws/policies.py:_ranks", "ws/policies.py:others",
                            "ws/policies.py:segments",
                            "ws/policies.py:segments"], seen
    assert found == [], found
    core = (SRC / "fastpath" / "_core.c").read_text()
    assert "list of lists" not in core and "PyList_Reverse" not in core


def test_no_deque_holds_a_shared_region_or_a_lock_queue():
    for module in ("ws/stack.py", "sim/resources.py"):
        tree = ast.parse((SRC / module).read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        assert "deque" not in names, module


def _call_sites(match):
    """``path:function`` of every call ``match(call)`` accepts, named
    by the innermost enclosing function (``<module>`` outside one)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append(f"{path.relative_to(SRC)}:{where}")
            visit(child, where)

    for path, tree in _modules():
        visit(tree, "<module>")
    return found


def _constructs(name):
    return lambda call: (isinstance(call.func, ast.Name)
                         and call.func.id == name)


def test_one_function_builds_the_machine_and_the_fault_runtime():
    assert _call_sites(_constructs("Machine")) == ["harness/runner.py:_run"]
    assert _call_sites(_constructs("FaultRuntime")) \
        == ["harness/runner.py:_run"]


def test_no_call_picks_a_literal_backend():
    """Every run, a checked cell too, resolves its backend one way:
    ``REPRO_FASTPATH``, then the request, then ``WsConfig.fastpath``,
    then auto.  No call under ``src/`` passes ``fastpath=`` a constant."""
    literal = _call_sites(lambda call: any(
        kw.arg == "fastpath" and isinstance(kw.value, ast.Constant)
        for kw in call.keywords))
    assert literal == [], literal


def test_one_checked_cell_loop():
    """``validate`` is no ``repro-uts`` subcommand (its grid is E15's),
    and one try/monitor/``final_check`` block, ``_checked``'s, checks a
    run across ``src/`` and ``tools/``."""
    cli = ast.parse((SRC / "harness" / "cli.py").read_text())
    subcommands = [
        node.args[0].value for node in ast.walk(cli)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_parser"]
    assert "experiment" in subcommands and "validate" not in subcommands
    assert _call_sites(lambda call: (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "final_check")) == ["check/runner.py:_checked"]
    tools = ROOT / "tools"
    assert [path.name for path in sorted(tools.glob("*.py"))
            if "final_check(" in path.read_text()] == []


def test_one_stealing_state():
    takes_redundant = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "try_steal"
        and any(arg.arg == "_redundant" for arg in
                node.args.args + node.args.kwonlyargs)]
    assert takes_redundant == []
    found = _definitions("try_steal")
    assert len(found) == 1 and found[0].startswith("ws/algorithms/base.py:"), \
        found
    requests = sorted({site.split(":")[0] for site in _call_sites(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == "emit"
        and any(isinstance(arg, ast.Constant) and arg.value == "steal.req"
                for arg in call.args))})
    assert requests == ["ws/algorithms/base.py", "ws/algorithms/mpi_ws.py"]


def _class(module, name):
    tree = ast.parse((SRC / module).read_text())
    [cls] = [node for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name == name]
    return cls


def test_a_message_is_a_named_tuple():
    cls = _class("msg/comm.py", "Message")
    assert [ast.unparse(b) for b in cls.bases] == ["NamedTuple"]
    assert cls.decorator_list == []
    assert "dataclass" not in (SRC / "msg" / "comm.py").read_text()


#: ``NetworkModel``'s per-operation cost methods.
COST_METHODS = ("shared_ref", "ref_cost_bounds", "one_sided", "message",
                "lock_cost", "chunk_transfer")


def test_no_cost_method_calls_another():
    cls = _class("net/model.py", "NetworkModel")
    methods = {node.name: node for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    assert set(COST_METHODS) <= set(methods)
    calls = [
        f"{name}: {ast.unparse(node)}"
        for name in COST_METHODS
        for node in ast.walk(methods[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"]
    assert calls == [], calls
    assert _mentions("_am_penalty") == []


def test_no_claim_charges_through_ctx_compute():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_claim"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "ctx.compute"]
    assert found == [], found


def test_no_frozen_parent_copy_comes_back():
    tests = SRC.parent.parent / "tests"
    assert sorted(tests.rglob("*_equals_reference.py")) == []


def test_the_corpus_covers_every_variant_in_every_mode():
    from repro import ALGORITHMS, WsConfig
    from repro.errors import ConfigError
    from repro.faults.plan import parse_fault_spec
    from repro.service.algorithm import ServiceAlgorithm
    from repro.ws.algorithms import get_algorithm
    from tests.golden.cells import CELLS

    seen = set()
    for cell in CELLS:
        if cell.api.startswith("check"):
            continue
        variant = cell.kwargs.get("variant", "service-ws")
        mode = (cell.kwargs["idle_strategy"], "faults" in cell.kwargs)
        seen.update({(variant, *mode, False), (variant, *mode, cell.traced)})
    def admits_a_plan(cls, idle):
        """Some fail-stop or stale plan that both the config (park
        admits fail-stop plans only) and the variant's gate accept."""
        for spec in ("kill=3@20us", "slow=1@2", "stale=0.3"):
            try:
                cfg = WsConfig(idle_strategy=idle,
                               faults=parse_fault_spec(spec, seed=0))
            except ConfigError:
                continue
            if cls.refusal(cfg) is None:
                return True
        return False

    missing = []
    for variant in sorted(ALGORITHMS) + ["service-ws"]:
        cls = (ServiceAlgorithm if variant == "service-ws"
               else get_algorithm(variant))
        for idle in ("poll", "park"):
            for faulted in (False, True):
                if faulted and not admits_a_plan(cls, idle):
                    continue
                missing += [(variant, idle, faulted, traced)
                            for traced in (False, True)
                            if (variant, idle, faulted, traced) not in seen]
    assert not missing


#: What the one policy gate (``AlgorithmBase.refusal``) replaced: the
#: generic registry class, the test-only triple table, and the
#: hand-written re-derivations of "does variant V accept this?".
GATE_RETIRED = ("PolicyRegistry", "VARIANT_TRIPLES", "variant_triple",
                "_offers", "_runs", "_admits", "_scenario_supported")
#: A variant's axes: three key tuples and its fault classes.
AXIS_ATTRIBUTES = ("steal_policies", "victim_policies",
                   "termination_policies", "fault_classes")


def test_the_policy_gate_is_the_only_acceptance_rule():
    """The retired names are gone from ``src/`` and ``tests/``; the axis
    attributes are read (not declared) only by ``ws/algorithms/base.py``,
    and no variant declares a native policy any other way."""
    tests = ROOT / "tests"
    pattern = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(GATE_RETIRED))
    found = [f"{path.relative_to(ROOT)}: {m.group(0)}"
             for path in sorted([*SRC.rglob("*.py"), *tests.rglob("*.py")])
             if path != Path(__file__).resolve()
             for m in pattern.finditer(path.read_text())]
    assert found == [], found
    reads, natives = [], []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in AXIS_ATTRIBUTES
                    or isinstance(node, ast.Constant)
                    and node.value in AXIS_ATTRIBUTES):
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and path.parent.name in (
                    "algorithms", "service"):
                natives += [
                    f"{path.relative_to(SRC)}:{stmt.lineno}"
                    for stmt in node.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for target in (stmt.targets if isinstance(stmt, ast.Assign)
                                   else [stmt.target])
                    if isinstance(target, ast.Name)
                    and target.id in ("steal_amount", "victim_policy")]
    assert reads and all(r.startswith("ws/algorithms/base.py:")
                         for r in reads), reads
    assert natives == [], natives


ROOT = SRC.parent.parent


#: What typed E9-E14 by hand, or looped over E15's cells, before the
#: registry held them; and the committed engine baseline, a second
#: performance record beside the ledger (``bench/run.py``).
RETIRED = ("tools/fault_matrix.py", "tools/bench_scale.py",
           "tools/bench_service.py", "tools/scenario_matrix.py",
           "tools/e14_ablation.py", "BENCH_scale.json", "BENCH_service.json",
           "SCENARIO_report.json", "E14_report.json",
           "tools/check_schedules.py", "src/repro/harness/validate.py",
           "tests/check/regressions/CHECK_report_clean.json",
           "BENCH_engine.json")


def test_no_second_copy_of_the_paper_claims():
    assert not (ROOT / "benchmarks").exists()
    assert sorted(ROOT.rglob("report_md.py")) == []
    assert [name for name in RETIRED if (ROOT / name).exists()] == []


def test_experiments_md_blocks_are_the_registry():
    from repro.harness.experiments import EXPERIMENTS, marker_ids

    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    ids = [e.id for e in EXPERIMENTS]
    assert marker_ids(text) == ids
    # every open marker is closed: no half pair the block regex skipped
    assert re.findall(r"^<!-- experiment:(\w+) -->$", text, re.M) == ids
    assert re.findall(r"^<!-- /experiment:(\w+) -->$", text, re.M) == ids
    sections = re.split(r"^## ", text, flags=re.M)
    for eid in [f"E{k}" for k in (*range(1, 7), *range(9, 16))]:
        [section] = [s for s in sections if s.startswith(f"{eid} ")]
        assert len(re.findall(r"^Regenerate: `repro-uts experiment "
                              rf"{eid}\b", section, flags=re.M)) == 1, eid
        assert len(re.findall(r"repro-uts experiment E\d", section)) == 1, eid
        assert f"<!-- experiment:{eid} -->" in section, eid


#: The result shapes registry grids returned before every grid returned
#: one ``CellTable``.
GRID_RESULTS_RETIRED = ("FigureResult", "RunTable", "SweepResult")


#: A checked registry cell: its name, its check-API keyword dict, and
#: how it runs; ``bind(cell)`` gives the variant, run, oracle, schedule.
CHECKED_JOB_FIELDS = ("where", "cell", "monitor", "announce", "index")
#: A sweep cell: one verified ``run_experiment``; ``expected_nodes=None``
#: is the one way to skip its oracle.
JOB_SPEC_FIELDS = ("index", "algorithm", "tree", "threads", "preset",
                   "chunk_size", "config", "seed", "expected_nodes", "net")


def test_every_registry_grid_runs_one_way_into_one_table():
    """One table type; and one cell language for the checked grids:
    ``harness/checked.py`` names no run entry point (every E9-E15 cell
    is a ``check_run`` / ``check_service_run`` keyword dict that
    ``check/runner.py:bind`` alone binds), and ``CheckedJob`` holds
    only the dict and how to run it."""
    classes = [f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
               for path, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name in GRID_RESULTS_RETIRED]
    assert classes == [], classes
    registry = ast.parse((SRC / "harness" / "experiments.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(registry)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert "run_experiment" not in imported
    checked = ast.parse((SRC / "harness" / "checked.py").read_text())
    named = [f"checked.py:{node.lineno}: {ident}"
             for node in ast.walk(checked) for ident in _identifiers(node)
             if ident in ("run_experiment", "run_service")]
    assert named == [], named
    for where, name, fields in (
            ("harness/checked.py", "CheckedJob", CHECKED_JOB_FIELDS),
            ("harness/parallel.py", "JobSpec", JOB_SPEC_FIELDS)):
        job = _class(where, name)
        assert tuple(stmt.target.id for stmt in job.body
                     if isinstance(stmt, ast.AnnAssign)) == fields, name


#: The longest ``docs/performance.md`` may be: a layer guide, not a log.
GUIDE_LINES = 600


def test_the_performance_guide_cites_only_ledger_metrics():
    """Every backticked dotted name in ``docs/performance.md`` whose
    first part is a ledger layer (``uts``, ``sim``, ``ws``, ...) is a
    metric ``BENCHMARK.json`` declares, and the guide stays short."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for key in ("end_to_end", "per_layer")
             for m in contract[key]}
    layers = {name.split(".")[0] for name in names if "." in name}
    text = (ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`([a-z]+(?:\.[\w-]+)+)`", text))
    assert sorted(n for n in cited
                  if n.split(".")[0] in layers and n not in names) == []
    assert len(text.splitlines()) < GUIDE_LINES


#: Every field of the three run configs, in declaration order: a new
#: field edits this table.
CONFIG_FIELDS = {
    ("ws/config.py", "WsConfig"): (
        "chunk_size", "poll_interval", "steal_policy", "victim_policy",
        "termination_policy", "speed_factors", "adversaries",
        "idle_strategy", "faults", "fastpath"),
    ("service/runtime.py", "ServiceConfig"): (
        "arrivals", "n_tasks", "queue_capacity", "policy", "deadline",
        "max_retries", "task_b0", "task_q", "task_gran", "task_engine",
        "seed"),
    ("faults/plan.py", "FaultPlan"): (
        "seed", "msg_drop_rate", "msg_dup_rate", "msg_delay_rate",
        "msg_delay_max", "lock_stall_rate", "lock_stall_time",
        "stale_read_rate", "stale_read_window", "slow_ranks",
        "slow_factor", "kill_ranks", "kill_times", "storms",
        "steal_timeout", "steal_timeout_max", "steal_retry_jitter",
        "ring_timeout", "heartbeat_period", "check_period"),
}
#: Fields no caller set, now the constants ``RELEASE_FACTOR``,
#: ``SEARCH_BACKOFF_*``, ``BARRIER_POLL_*`` (``ws/config.py``),
#: ``RETRY_BACKOFF``, ``RETRY_JITTER``, ``TASK_M``
#: (``service/runtime.py``), ``HEARTBEAT_MISS`` (``faults/plan.py``) and
#: ``SCAN_PERIOD`` (``check/invariants.py``, once a monitor argument).
FIELDS_RETIRED = ("release_factor", "search_backoff_min",
                  "search_backoff_max", "search_backoff_factor",
                  "barrier_poll_min", "barrier_poll_max", "retry_backoff",
                  "retry_jitter", "task_m", "heartbeat_miss", "scan_period")


def _identifiers(node):
    """The names ``node`` reads, sets, imports or passes by keyword or
    string."""
    if isinstance(node, ast.alias):
        return (node.name,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, (ast.keyword, ast.arg)):
        return (node.arg,)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return ()


def test_the_run_configs_hold_only_the_fields_a_caller_sets():
    for (module, name), fields in CONFIG_FIELDS.items():
        declared = tuple(stmt.target.id for stmt in _class(module, name).body
                         if isinstance(stmt, ast.AnnAssign))
        assert declared == fields, name
    found = [f"{path.relative_to(SRC)}:{node.lineno}: {ident}"
             for path, tree in _modules() for node in ast.walk(tree)
             for ident in _identifiers(node) if ident in FIELDS_RETIRED]
    assert found == [], found

"""The benchmark's per-layer trace hooks and set-up still reach the package.

``perfbench/tracing.py`` wraps package attributes by name, and the catalog
warm-up in ``perfbench/run.py`` reads them by name.  A renamed attribute
would crash a benchmark run, and a call that bypasses the module attribute
would silently count zero; both fail here instead.  A module binding kept
only for a hook is the one import the package may leave unused.  Six
more tests pin the package's structure: every import sits at module level,
one cached list gives every r-subset family, only ``kernel`` and ``flats``
read the byte-lane helpers, the internal import graph has no cycle, the
oracle's scan imports nothing from the package, and it takes the basis
count rather than the bases.
"""

from __future__ import annotations

import ast
import graphlib
import importlib
import importlib.util
import inspect
import time
from pathlib import Path

import pytest

import latmat
from latmat.catalog import wheel3
from latmat.ordersearch import scan_path_orders

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_count_every_layer():
    tracing = _load(PERFBENCH / "tracing.py", "perfbench_tracing")
    keys = {hook[0] for hook in tracing.HOOKS} | {"kernel"}
    mods = {k: importlib.import_module("latmat." + k) for k in keys}
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        kernel = mods["kernel"]
        W = kernel.matroid_from_text(kernel.matroid_to_text(wheel3()))
        assert mods["lpm"].find_path_order(W) is None
        assert not mods["lpm"].is_lpm_char(W).verdict
        assert mods["minors"].find_catalog_minor(W) is not None
        counts = tracer.counters()
    finally:
        tracer.uninstall()
    for name in (
        "flats.pnc",
        "flats.fundamental",
        "ordersearch.scan",
        "ordersearch.orders_tested",
        "kernel.from_bases",
        "kernel.rank_table",
        "kernel.minor_masks",
        "minors.has_minor",
        "canonical.labeling",
    ):
        assert counts.get(name, 0) > 0, name


def test_benchmark_catalog_warm_up_runs(monkeypatch):
    """``warm_catalog`` reads catalog members' attributes by name, so a
    renamed one fails here rather than only in a benchmark run."""
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load(PERFBENCH / "run.py", "perfbench_run")
    mods = {m: importlib.import_module("latmat." + m) for m in run.MODULES}
    run.warm_catalog(mods, (6, 7, 8))


def test_recognize_large_texts_take_the_table_reader(monkeypatch):
    """One recognize-large pass at the default seed passes the benchmark's
    gate, and every one of its texts is read by the table reader: a fast
    path that declined canonical text would otherwise show only as a
    slower benchmark run."""
    # as in run.py: workloads.py imports its sibling inputs.py by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    mods = {m: importlib.import_module("latmat." + m) for m in ("catalog", "kernel", "lpm")}
    workload = workloads.WORKLOADS["recognize-large"]
    texts = workload.build(mods, workload.default_seed)
    assert len(texts) == 21
    kernel, single_pass = mods["kernel"], []
    token_lines = kernel._token_lines
    monkeypatch.setattr(
        kernel, "_token_lines", lambda text: single_pass.append(text) or token_lines(text)
    )
    records = workload.run_pass(mods, texts, time.perf_counter, None, lambda: None)
    gate = workloads.Gate(mods, max(workload.catalog_sizes))
    assert workloads.gate_pass(workload, gate, records) == []
    assert single_pass == []


def test_no_module_imports_a_name_it_never_uses():
    """Names imported by a package module and never read in it, apart from
    ``__future__`` imports, the names ``__init__`` re-exports through
    ``__all__`` and the bindings the trace hooks wrap."""
    tracing = _load(PERFBENCH / "tracing.py", "perfbench_tracing")
    hooked = {(module, attr) for module, attr, _, _ in tracing.HOOKS}
    unused = []
    for path in sorted(Path(latmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(latmat.__all__)
        unused += [
            f"{path.stem}.{name}"
            for name in sorted(imported - read)
            if (path.stem, name) not in hooked
        ]
    assert unused == []


def test_no_function_local_imports():
    """Every import in the package sits at module level."""
    local = set()
    for path in sorted(Path(latmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        local |= {
            f"{path.stem}.{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    assert local == set()


def _combinations_scopes(node: ast.AST, scope: str) -> set[str]:
    """The dotted scopes (module, then class and function names) under
    `node` that read ``itertools.combinations`` or import it by name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    here = (
        isinstance(node, ast.Attribute)
        and node.attr == "combinations"
        and isinstance(node.value, ast.Name)
        and node.value.id == "itertools"
    ) or (
        isinstance(node, ast.ImportFrom)
        and node.module == "itertools"
        and any(alias.name == "combinations" for alias in node.names)
    )
    found = {scope} if here else set()
    for child in ast.iter_child_nodes(node):
        found |= _combinations_scopes(child, scope)
    return found


def test_one_list_enumerates_the_r_subsets():
    """Every r-subset family of the package (uniform and sparse paving
    bases, truncations, the basis-line table, the minor search's removed
    sets) is read from ``kernel._subset_masks``, the one place that calls
    ``itertools.combinations``."""
    scopes = set()
    for path in sorted(Path(latmat.__file__).parent.glob("*.py")):
        scopes |= _combinations_scopes(ast.parse(path.read_text()), path.stem)
    assert scopes == {"kernel._subset_masks"}


def test_only_kernel_and_flats_read_the_byte_lanes():
    """The byte-lane helpers ``_lanes``, ``_at_least`` and ``_lane_members``
    (one byte per subset, for per-subset values) are read by ``kernel``,
    which defines them, and ``flats`` alone; families of sets elsewhere
    live on the bit lanes of ``_canonical``."""
    helpers = {"_lanes", "_at_least", "_lane_members"}
    readers = set()
    for path in sorted(Path(latmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if names & helpers:
            readers.add(path.stem)
    assert readers == {"kernel", "flats"}


def _package_imports(path: Path) -> set[str]:
    """Dotted names a module imports anywhere in it, each spelled from the
    package root: ``from .kernel import x`` gives ``latmat.kernel`` and
    ``from . import lpm`` gives ``latmat.lpm``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("latmat." if node.level else "") + (node.module or "")
            if base.rstrip(".") == "latmat":
                names |= {f"latmat.{alias.name}" for alias in node.names}
            else:
                names.add(base)
    return names


def test_internal_import_graph_is_acyclic():
    """``lpm`` is the one module that knows all three recognizers: it
    imports ``catalog`` and ``minors``, and neither imports it back, at
    module level or inside a function."""
    paths = sorted(Path(latmat.__file__).parent.glob("*.py"))
    stems = {path.stem for path in paths}
    graph = {
        path.stem: {
            name.split(".")[1]
            for name in _package_imports(path)
            if name.startswith("latmat.")
        } & stems
        for path in paths
    }
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert {"catalog", "minors"} <= graph["lpm"]
    assert "lpm" not in graph["catalog"] | graph["minors"]


def test_oracle_imports_nothing_from_the_package():
    """The exact oracle's scan imports nothing from the package: it takes
    the clone steps it prunes by as an argument, and a wrong clone relation
    would make the oracle and the minor search err in opposite directions,
    so the three-way check still compares independent verdicts."""
    path = Path(latmat.__file__).parent / "ordersearch.py"
    assert {
        name
        for name in _package_imports(path)
        if name == "latmat" or name.startswith(("latmat.", "."))
    } == set()


def test_oracle_scan_takes_the_basis_count():
    """The scan's leaf test is the transversal count alone, so it is handed
    the number of bases and never a basis family."""
    assert tuple(inspect.signature(scan_path_orders).parameters) == (
        "n", "num_bases", "rank_table", "clone_steps",
    )

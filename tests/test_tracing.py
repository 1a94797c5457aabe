"""The benchmark's per-layer trace hooks and set-up still reach the package.

``perfbench/tracing.py`` wraps package attributes by name, and the catalog
warm-up in ``perfbench/run.py`` reads them by name.  A renamed attribute
would crash a benchmark run, and a call that bypasses the module attribute
would silently count zero; both fail here instead.  A module binding kept
only for a hook is the one import the package may leave unused.  Ten
more tests pin the package's structure: every import sits at module level,
one cached list gives every r-subset family, only ``kernel`` and ``flats``
read the byte-lane helpers, the internal import graph has no cycle, the
oracle's scan imports nothing from the package, it takes the basis count
rather than the bases, a matroid stores its bases once and builds its
family int in one place, there is one labeling search, which an
isomorphism test runs on one side toward the other side's labeling, that
search prunes by clones and profiles only, with no union-find and no
root-orbit state, and the corpus has one class test.
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
from latmat import _canonical
from latmat.catalog import wheel3
from latmat.kernel import from_bases, uniform
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
        # a minor hit labels only the pattern, which an earlier test may
        # have labelled already; W itself is fresh from the text
        assert kernel.canonical_form(W) == kernel.canonical_form(wheel3())
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


def _scopes_calling(node: ast.AST, scope: str, name: str) -> set[str]:
    """The dotted scopes under `node` that call `name`, bare or as an
    attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    func = node.func if isinstance(node, ast.Call) else None
    here = (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )
    found = {scope} if here else set()
    for child in ast.iter_child_nodes(node):
        found |= _scopes_calling(child, scope, name)
    return found


def test_one_copy_of_the_bases_and_one_family_int_builder():
    """A matroid stores its bases once, as the sorted ``basis_masks``, with
    no set of them beside it, and the family int the labeling search, the
    clone steps and the corpus relabelling read is built only by
    ``kernel``: cached per matroid as ``Matroid._family``, and per size as
    ``_size_family``."""
    for M in (from_bases(3, [{0, 1}, {0, 2}]), uniform(2, 4), wheel3()):
        held = {
            name for name, value in vars(M).items()
            if isinstance(value, (set, frozenset))
        }
        assert held == set(), held
    scopes = set()
    for path in sorted(Path(latmat.__file__).parent.glob("*.py")):
        scopes |= _scopes_calling(
            ast.parse(path.read_text()), path.stem, "_family_int"
        )
    assert scopes == {"kernel.Matroid._family", "kernel._size_family"}


def test_one_search_class_and_one_labelled_side():
    """``_canonical`` defines one class, the labeling search, and
    ``kernel.is_isomorphic`` reads the cached labeling ``_canon`` of its
    second argument only: the first side's search runs toward it."""
    package = Path(latmat.__file__).parent
    tree = ast.parse((package / "_canonical.py").read_text())
    assert [
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ] == ["_Search"]
    tree = ast.parse((package / "kernel.py").read_text())
    (func,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "is_isomorphic"
    ]
    readers = {
        ast.unparse(node.value)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "_canon"
    }
    assert readers == {func.args.args[1].arg}


def test_labeling_search_keeps_no_root_orbits():
    """The labeling search prunes only by clone collapsing and worse
    profiles: ``_canonical`` defines no union-find ``_find``, and
    ``_Search`` absorbs no automorphisms into an ``autos`` set, since the
    group is read off its final best leaves."""
    assert not hasattr(_canonical, "_find")
    assert not hasattr(_canonical._Search, "_absorb_autos")
    W = wheel3()
    search = _canonical._Search(W.n, W.basis_masks, W._family)
    search.run()
    assert not hasattr(search, "autos")


def test_one_class_test_in_the_corpus():
    """``corpus`` relabels by degree and compares canonical forms in one
    function only: the class test every draw passes as it is made."""
    tree = ast.parse((Path(latmat.__file__).parent / "corpus.py").read_text())
    for name in ("_degree_sorted_family", "canonical_form"):
        assert _scopes_calling(tree, "corpus", name) == {
            "corpus._class_test.is_new"
        }, name

"""The benchmark's per-layer trace hooks and set-up still reach the package.

``perfbench/tracing.py`` wraps package attributes by name, and the catalog
warm-up in ``perfbench/run.py`` reads them by name.  A renamed attribute
would crash a benchmark run, and a call that bypasses the module attribute
would silently count zero; both fail here instead.  A module binding kept
only for a hook is the one import the package may leave unused.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import latmat
from latmat.catalog import wheel3

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


def test_function_local_imports_only_break_the_minors_cycle():
    """Imports sit at module level, except where ``lpm`` reaches ``minors``
    and ``catalog``: ``minors`` imports ``lpm``, so those two functions
    import it when called."""
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
    assert local <= {"lpm.recognize", "lpm.is_nested_via_pn"}

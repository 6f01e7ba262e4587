"""Public surface: every exported name resolves, every layer function the
benchmark's per-layer metrics name is defined and exported where it says, and
every other exported function has a caller in the package."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import rrshift
from rrshift.scenario import Scenario

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that count solver or tracer work, not a program function
NON_LAYER_PREFIXES = ("ode.", "quad.", "trace.")


def test_exported_names_resolve():
    missing = [f"rrshift.{name}" for name in rrshift.__all__ if not hasattr(rrshift, name)]
    for info in pkgutil.iter_modules(rrshift.__path__):
        module = importlib.import_module(f"rrshift.{info.name}")
        missing += [f"rrshift.{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def benchmark_spans():
    """The "layer.function" spans that BENCHMARK.json's per-layer metrics name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
            if not m["name"].startswith(NON_LAYER_PREFIXES)}


def test_benchmark_layer_functions_exist():
    spans = benchmark_spans()
    assert spans
    problems = []
    for span in sorted(spans):
        if span == "scenario.build":
            if not inspect.isfunction(Scenario.build):
                problems.append(span)
            continue
        layer, name = span.split(".")
        module = importlib.import_module(f"rrshift.{layer}")
        fn = getattr(module, name, None)
        if (name not in getattr(module, "__all__", ()) or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            problems.append(span)
    assert not problems


def test_exported_functions_have_a_caller():
    """A function in a layer module's __all__ is used somewhere in the package
    outside its own def, or is a span the benchmark traces: oracle-only paths
    belong in the tests."""
    package = Path(rrshift.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    spans = benchmark_spans()
    unused = []
    for info in pkgutil.iter_modules(rrshift.__path__):
        module = importlib.import_module(f"rrshift.{info.name}")
        for name in getattr(module, "__all__", ()):
            if not inspect.isfunction(getattr(module, name)) or f"{info.name}.{name}" in spans:
                continue
            own = {id(node) for fn in ast.walk(trees[info.name])
                   if isinstance(fn, ast.FunctionDef) and fn.name == name
                   for node in ast.walk(fn)}
            uses = [node for tree in trees.values() for node in ast.walk(tree)
                    if id(node) not in own and (
                        isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name)]
            if not uses:
                unused.append(f"{info.name}.{name}")
    assert not unused

"""Public surface: every exported name resolves, and every layer function the
benchmark's per-layer metrics name is defined and exported where it says."""

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


def test_benchmark_layer_functions_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
             if not m["name"].startswith(NON_LAYER_PREFIXES)}
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

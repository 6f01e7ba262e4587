"""Outside-in span tracing of the rrshift layers, kept inside the benchmark.

`Tracer.install()` wraps the public functions of the layer modules, plus
`Scenario.build` and the `scipy.integrate` entry points the layers import,
by replacing the attribute wherever an `rrshift.*` module namespace holds
that function object.  Calls between modules therefore go through the
wrapper too, and no source file of the program changes.

Each wrapped call records one span: name, start, end and parent.  Spans are
kept in memory and written out once, when the run ends.  A span's self time
is its duration minus the time its children cover.  Parents are tracked in
a context variable, which a thread pool does not carry, so a traced run must
be serial; calls from any other thread are counted and fail the accounting
check instead of being attached to the wrong parent.
"""

from __future__ import annotations

import contextvars
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("potentials", "dynamics", "lorentz_dirac", "variational", "shift",
          "semiclassical", "scenario", "parallel", "cli")

# scipy.integrate entry points, by the span name they are recorded under
SOLVERS = {"solve_ivp": "ode.solve_ivp", "quad_vec": "quad.quad_vec", "quad": "quad.quad"}

# spans that also record how many time or coordinate points one call covers
POINT_ARG = {
    "dynamics.kinematics": "t",
    "lorentz_dirac.ld_coordinate_force": "t",
    "potentials.eval_derivative": "s",
    "potentials.eval_potential": "s",
}

# root span the benchmark opens around each operation
ROOT_SPAN = "bench.op"
# fraction of the traced wall time the span tree's self times may miss
ACCOUNTING_TOLERANCE = 0.01
# fraction of the traced wall time that may fall in no layer span
UNATTRIBUTED_LIMIT = 0.01


def _points(args, kwargs, key) -> int:
    value = args[1] if len(args) > 1 else kwargs.get(key)
    return int(np.size(value))


class Tracer:
    """Span recorder for one traced run.  Spans accumulate across
    install()/uninstall() cycles, one cycle per traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")   # points, ODE nfev, or octaves
        self.steps = array("q")   # ODE steps
        self.foreign_calls = 0
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._current.get())
        self.count.append(0)
        self.steps.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if threading.get_ident() != self._thread:
            self.foreign_calls += 1
            return fn(*args, **kwargs)
        idx = self._open(name)
        token = self._current.set(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._current.reset(token)
        if name in POINT_ARG:
            self.count[idx] = _points(args, kwargs, POINT_ARG[name])
        elif name == "ode.solve_ivp":
            self.count[idx] = int(result.nfev)
            self.steps[idx] = int(result.t.size - 1)
        elif name == "semiclassical.radiated_energy":
            self.count[idx] = int(result.octaves)
        return result

    def root(self, fn):
        """Run fn() inside a ROOT_SPAN span: one per traced operation."""
        return self.call(ROOT_SPAN, fn)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target in every rrshift.* namespace that holds it."""
        import scipy.integrate

        from rrshift.scenario import Scenario

        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"rrshift.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[id(fn)] = (fn, f"{layer}.{attr}")
        for attr, name in SOLVERS.items():
            fn = getattr(scipy.integrate, attr)
            targets[id(fn)] = (fn, name)

        self.installed = {name for _, name in targets.values()} | {"scenario.build"}
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rrshift" or mod_name.startswith("rrshift.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][0]:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

        build = Scenario.build
        self._patches.append((Scenario, "build", build))
        Scenario.build = self._wrap("scenario.build", build)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "steps": np.frombuffer(self.steps, dtype=np.int64),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        duration = a["end"] - a["start"]
        covered = np.zeros_like(duration)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], duration[child])
        return duration - covered

    def table(self) -> dict:
        """Per span name: calls, self_s, total_s, and the recorded counts."""
        a = self.arrays()
        own = self.self_times()
        duration = a["end"] - a["start"]
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            row = {
                "calls": int(sel.sum()),
                "self_s": float(own[sel].sum()),
                "total_s": float(duration[sel].sum()),
            }
            if name in POINT_ARG:
                row["points"] = int(a["count"][sel].sum())
            elif name == "ode.solve_ivp":
                row["nfev"] = int(a["count"][sel].sum())
                row["steps"] = int(a["steps"][sel].sum())
            elif name == "semiclassical.radiated_energy":
                row["octaves"] = int(a["count"][sel].sum())
            out[name] = row
        return out

    def accounting(self, wall_s: float) -> dict:
        """Check the span tree against wall time measured without spans.

        wall_s is timed around each traced operation together with
        installing and removing the wrappers.  The self times of all spans
        sum to the time the root spans cover, so comparing that sum with
        wall_s to ACCOUNTING_TOLERANCE only shows that tracing costs little
        outside the roots.  Coverage is shown by the share of wall_s that
        no layer span covers: the self time of the ROOT_SPAN roots, that
        is the benchmark's own checks and program code outside the traced
        layers.  It must stay below UNATTRIBUTED_LIMIT.  No self time may be
        negative, and no call may come from another thread.
        """
        own = self.self_times()
        total = float(own.sum())
        gap = abs(total - wall_s) / wall_s
        root_id = self._name_ids.get(ROOT_SPAN, -1)
        roots = np.frombuffer(self.name_id, dtype=np.int32) == root_id
        unattributed = float(own[roots].sum()) / wall_s
        negative = int(np.sum(own < -1e-9))
        return {
            "self_sum_s": total,
            "wall_s": wall_s,
            "gap_fraction": gap,
            "tolerance": ACCOUNTING_TOLERANCE,
            "unattributed_fraction": unattributed,
            "unattributed_limit": UNATTRIBUTED_LIMIT,
            "negative_self_spans": negative,
            "foreign_thread_calls": self.foreign_calls,
            "spans": len(self.start),
            "ok": (gap <= ACCOUNTING_TOLERANCE and unattributed <= UNATTRIBUTED_LIMIT
                   and negative == 0 and self.foreign_calls == 0),
        }

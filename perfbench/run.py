#!/usr/bin/env python3
"""rrshift benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout.  Workloads:

  routes    in-process `rrshift shift` on every bundled scenario, all four
            routes at default resolution, on the CLI's thread pool;
  spectral  radiated energy against Larmor, the emission-probability
            Parseval identity, and hbar convergence (0.1, 0.05);
  sweep     12 scenarios drawn from the seed, one per (axis, shape) pair,
            through `rrshift shift --routes direct,green,quantum --serial`.
            Not in BENCHMARK.json: its margins change too much from seed to
            seed (see README.md); run it by hand to recheck on fresh inputs.

Every operation checks its own reference; a raised error, a nonzero exit
code or a result outside its threshold counts as a failure.  With
`--trace 0` the last line of standard output is the end-to-end result;
with `--trace 1` the run makes each operation once untraced and once
traced, serially, and prints the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  Inputs, reports, the environment record and spans go to
perfbench/out/<workload>-seed<seed>[-trace]/.  The exit code is 0 only if
every check passed; it is 2 if the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("routes", "spectral", "sweep")
ROUTE_SCENARIOS = ("amplitude_shift", "collinear", "convergence", "energy", "oblique",
                   "pulse_single", "rest_pulse", "spatial", "weak")
SWEEP_ROUTES = "direct,green,quantum"

# Seed reserved for re-checking a claim on sweep inputs nobody tuned on.
HELDOUT_SWEEP_SEED = 530861
# set-up is repeated in this many fresh interpreters, plus the run's own
SETUP_PROBES = 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Check:
    passed: bool
    residual: float | None
    threshold: float | None
    detail: str


@dataclass
class Operation:
    name: str
    run: object  # () -> Check


@dataclass
class Record:
    name: str
    seconds: float
    passed: bool
    residual: float | None
    threshold: float | None
    margin_decades: float | None
    detail: str


@dataclass
class Pass:
    wall_s: float
    records: list
    peak_rss_mb: float | None = None  # peak of the process so far, when the pass ended


# --- environment ------------------------------------------------------------


def _capped(var: str, cap: int) -> int:
    try:
        return max(1, min(int(os.environ.get(var, cap)), cap))
    except ValueError:
        return cap


def cap_threads(workload: str, trace: bool) -> None:
    """Cap RRSHIFT_THREADS at nproc and run BLAS/OpenMP on one thread.

    Must run before numpy is imported.  A second BLAS thread doubled the
    CPU time of the spectral operations and saved at most 10% of their wall
    time, while tying each of them to both cores of a shared 2-core host.
    `sweep` is the single-thread baseline.  `spectral` is serial too: its
    one pooled call, hbar_convergence, holds the GIL nearly throughout and
    took 14% longer on two threads than on one.  A traced run is serial
    because spans need one thread.
    """
    nproc = len(os.sched_getaffinity(0))
    pool = 1 if (workload in ("sweep", "spectral") or trace) else nproc
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["RRSHIFT_THREADS"] = str(_capped("RRSHIFT_THREADS", pool))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rrshift").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    from rrshift.parallel import thread_cap

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "rrshift_threads": thread_cap(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "heldout_sweep_seed": HELDOUT_SWEEP_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- operations -------------------------------------------------------------
#
# Operations look the program's functions up in their modules when they run,
# not when they are built, so that a traced run calls the traced wrappers.


def shift_op(name: str, scenario_path: Path, report_path: Path, routes: str | None) -> Operation:
    """In-process `rrshift shift`; checks the report's own pass and threshold."""
    argv = ["shift", "--scenario", str(scenario_path), "--out", str(report_path)]
    if routes is not None:
        argv += ["--routes", routes, "--serial"]
    expected = (routes or "direct,green,quantum,quantum_quadrature").split(",")

    def run() -> Check:
        report_path.unlink(missing_ok=True)
        rc = sys.modules["rrshift.cli"].main(argv)
        if not report_path.exists():
            return Check(False, None, None, f"exit code {rc}, no report")
        rep = json.loads(report_path.read_text())
        residual, threshold = rep["max_residual"], rep["threshold"]
        missing = [r for r in expected if rep["shifts"].get(r) is None]
        passed = (rc == 0 and rep["pass"] is True and not rep["errors"] and not missing
                  and residual is not None and residual < threshold)
        detail = f"exit {rc}, pass {rep['pass']}, errors {rep['errors']}, missing {missing}"
        return Check(passed, residual, threshold, detail)

    return Operation(name, run)


def energy_op(sc) -> Operation:
    """Windowed spectral energy at 8x4 directions against the Larmor integral.

    The `energy` scenario accelerates along one axis and the direction grid
    is aligned with it, so the integrand does not depend on the azimuth:
    4 azimuths give the energy 16 give, to ten digits, in a quarter of the
    time, which leaves room for a second pass in a run.
    """
    threshold = 1e-3

    def run() -> Check:
        semi = sys.modules["rrshift.semiclassical"]
        traj = sc.build()
        rep = semi.radiated_energy(traj, sc.window(traj), sc.charge, n_polar=8, n_azimuth=4)
        larmor = semi.larmor_radiated_energy(traj, sc.alpha_c)
        rel = abs(rep.physical - larmor) / abs(larmor)
        detail = f"spectral {rep.physical:.9e}, larmor {larmor:.9e}, octaves {rep.octaves}"
        return Check(rel < threshold, rel, threshold, detail)

    return Operation("radiated_energy", run)


def probability_op(sc) -> Operation:
    """Reduced emission probability at 8x16, k_max 12: Parseval difference."""
    threshold = 1e-8

    def run() -> Check:
        semi = sys.modules["rrshift.semiclassical"]
        traj = sc.build()
        rep = semi.emission_probability_reduced(traj, sc.window(traj), n_polar=8,
                                                n_azimuth=16, k_max=12.0)
        rel = abs(rep.difference) / abs(rep.assembled)
        detail = f"assembled {rep.assembled:.12e}, double-xi {rep.double_xi:.12e}"
        return Check(rel < threshold, rel, threshold, detail)

    return Operation("emission_probability_reduced", run)


def convergence_op(sc) -> Operation:
    """hbar convergence at (0.1, 0.05); residual is criterion 7's 1/min(margin)."""

    def run() -> Check:
        out = sys.modules["rrshift.verify"].hbar_convergence(sc, hbars=(0.1, 0.05))
        margins = [r / (0.85 * e)
                   for row, e in zip(out["component_ratios"], out["expected_ratios"])
                   for r in row if r is not None]
        residual = 1.0 / min(margins)
        detail = f"component ratios {out['component_ratios']}"
        return Check(out["passed"] and residual < 1.0, residual, 1.0, detail)

    return Operation("hbar_convergence", run)


def setup(workload: str, seed: int, run_dir: Path | None) -> list[Operation]:
    """Import rrshift, load and validate the inputs, make the sweep draws.

    Only the sweep draws depend on the seed; routes and spectral run the
    bundled scenarios in a fixed order.  With run_dir None (a set-up probe)
    nothing is written.
    """
    import rrshift.cli  # importing the package is part of set-up
    from rrshift.scenario import load_scenario, scenario_from_dict

    reports, inputs = (run_dir or OUT) / "reports", (run_dir or OUT) / "inputs"
    if run_dir is not None:
        reports.mkdir()
        inputs.mkdir()
    if workload == "routes":
        paths = [ROOT / "scenarios" / f"{name}.json" for name in ROUTE_SCENARIOS]
        for path in paths:
            load_scenario(path)
        ops = [shift_op(p.stem, p, reports / f"{p.stem}.json", None) for p in paths]
    elif workload == "spectral":
        def load(name):
            return load_scenario(ROOT / "scenarios" / f"{name}.json")
        ops = [energy_op(load("energy")), probability_op(load("pulse_single")),
               convergence_op(load("convergence"))]
    else:
        from sweep import draw_scenarios

        ops = []
        for data in draw_scenarios(seed):
            scenario_from_dict(data)
            path = inputs / f"{data['name']}.json"
            if run_dir is not None:
                path.write_text(json.dumps(data, indent=2) + "\n")
            ops.append(shift_op(data["name"], path, reports / f"{data['name']}.json",
                                SWEEP_ROUTES))
    return ops


def probe_setup(args) -> float:
    """Set-up time in a fresh interpreter, as reported by that interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


# --- measurement ------------------------------------------------------------


def run_op(op: Operation, tracer=None) -> Record:
    t0 = time.perf_counter()
    try:
        check = op.run() if tracer is None else tracer.root(op.run)
    except Exception as exc:  # a raised error is a failed operation
        check = Check(False, None, None, "".join(
            traceback.format_exception_only(type(exc), exc)).strip())
    seconds = time.perf_counter() - t0
    residual = None if check.residual is None else float(check.residual)
    threshold = None if check.threshold is None else float(check.threshold)
    margin = None
    if residual is not None and threshold is not None:
        margin = math.log10(threshold / max(residual, 1e-300))
    return Record(op.name, seconds, bool(check.passed), residual, threshold, margin,
                  check.detail)


def run_pass(ops: list[Operation]) -> Pass:
    start = time.perf_counter()
    records = [run_op(op) for op in ops]
    wall_s = time.perf_counter() - start
    return Pass(wall_s, records, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def run_traced(ops: list[Operation], tracer) -> tuple[Pass, Pass, float]:
    """(untraced, traced) passes, made by running each operation once
    untraced and once traced, back to back.  The order alternates from one
    operation to the next, so drift in machine speed favours neither side.

    The third value is the traced time measured around installing the
    wrappers, the operation and removing them; no span is used to time it.
    """
    untraced, traced, traced_s = [], [], 0.0
    for i, op in enumerate(ops):
        for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
            if not trace_it:
                untraced.append(run_op(op))
                continue
            t0 = time.perf_counter()
            tracer.install()
            try:
                traced.append(run_op(op, tracer))
            finally:
                tracer.uninstall()
                traced_s += time.perf_counter() - t0
    return (Pass(sum(r.seconds for r in untraced), untraced),
            Pass(sum(r.seconds for r in traced), traced), traced_s)


def run_passes(ops: list[Operation], seconds: float) -> list[Pass]:
    """Whole passes; another one starts only if it fits in `seconds`."""
    passes = [run_pass(ops)]
    elapsed = passes[0].wall_s
    while elapsed + passes[-1].wall_s <= seconds:
        passes.append(run_pass(ops))
        elapsed += passes[-1].wall_s
    return passes


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict:
    records = [r for p in passes for r in p.records]
    margins = [r.margin_decades for r in records if r.margin_decades is not None]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": statistics.median(statistics.median(r.seconds for r in p.records)
                                      for p in passes),
        "op_max_s": statistics.median(max(r.seconds for r in p.records) for p in passes),
        "setup_s": statistics.median(setup_samples),
        # through the first pass only: later passes raise the peak a little
        # (about 4 MB on spectral), and how many fit depends on machine speed
        "peak_rss_mb": passes[0].peak_rss_mb,
        "margin_min_decades": min(margins) if margins else None,
        "margin_mean_decades": statistics.fmean(margins) if margins else None,
        "pass_frac": sum(r.passed for r in records) / len(records),
    }


def per_layer(name: str, table: dict, known: set, overhead_s: float):
    """One per-layer metric from the span table; 0 where a workload never
    calls the span."""
    if name == "trace.overhead_s":
        return overhead_s
    if name == "ode.solves":
        return table.get("ode.solve_ivp", {}).get("calls", 0)
    if name in ("ode.nfev", "ode.steps"):
        return table.get("ode.solve_ivp", {}).get(name.split(".")[1], 0)
    if name == "quad.calls":
        return sum(table.get(s, {}).get("calls", 0) for s in ("quad.quad_vec", "quad.quad"))
    span, field = name.rsplit(".", 1)
    if span not in known:
        raise KeyError(f"per-layer metric {name!r} names no traced span")
    return table.get(span, {}).get(field, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rrshift" / "__init__.py").is_file():
        print(f"perfbench: no rrshift package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cap_threads(args.workload, bool(args.trace))
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed, None)
        print(time.perf_counter() - t0)
        return 0

    run_dir = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        ops = setup(args.workload, args.seed, run_dir)
        setup_samples.append(time.perf_counter() - t0)
    except Exception:
        traceback.print_exc()
        print("perfbench: set-up failed", file=sys.stderr)
        return 2
    import rrshift
    if SRC not in Path(rrshift.__file__).resolve().parents:
        print(f"perfbench: imported rrshift from {rrshift.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = {"environment": environment(args), "setup_samples_s": setup_samples}
    if args.trace == 0:
        passes = run_passes(ops, args.seconds)
        values = end_to_end(passes, setup_samples)
        wanted = spec["end_to_end"]
        correct = all(r.passed for p in passes for r in p.records)
    else:
        import numpy as np

        from spans import Tracer

        tracer = Tracer()
        reference, traced, traced_s = run_traced(ops, tracer)
        passes = [reference, traced]
        table = tracer.table()
        accounting = tracer.accounting(traced_s)
        np.savez_compressed(run_dir / "spans.npz", **tracer.arrays())
        known = set(tracer.names) | set(tracer.installed)
        overhead = traced.wall_s - reference.wall_s
        wanted = spec["per_layer"]
        values = {m["name"]: per_layer(m["name"], table, known, overhead) for m in wanted}
        result.update(spans=table, accounting=accounting)
        correct = accounting["ok"] and all(r.passed for p in passes for r in p.records)

    attempted = sum(len(p.records) for p in passes)
    failed = sum(not r.passed for p in passes for r in p.records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update(passes=[{"wall_s": p.wall_s, "operations": [asdict(r) for r in p.records]}
                          for p in passes],
                  correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    for p in passes:
        for r in p.records:
            if not r.passed:
                print(f"perfbench: FAILED {r.name}: {r.detail}", file=sys.stderr)
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

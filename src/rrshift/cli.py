"""Command-line entry points.

Subcommands:
    shift          run the shift routes on a scenario, emit the JSON report
    spectrum       windowed emission amplitudes on a (k, n) grid, CSV
    force-profile  self-force along the trajectory, CSV
    jacobi-dump    position/momentum response entries along the trajectory, CSV
    convergence    finite-hbar amplitude error ratios, JSON
    verify         run the acceptance suite, print one line per criterion

Exit codes: 0 success (and every check passed), 1 a residual check failed,
2 bad input (scenario, flags, or auxiliary files).

Reports are deterministic with --serial: timing fields are nulled (and
`verify` prints no runtime stamps) so two runs of the same scenario are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import _flow_sample
from .lorentz_dirac import _coordinate_force
from .parallel import parallel_map
from .scenario import ScenarioError, load_scenario
from .semiclassical import amplitude_classical, taper_amplitude
from .shift import ROUTE_NAMES, compare_routes
from .variational import jacobi_basis
from .verify import hbar_convergence, run_suite

__all__ = ["main"]


def _clean(obj):
    """JSON-safe copy: arrays to lists, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


def _dumps(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.16e" % float(x) for x in row))
    return "\n".join(lines) + "\n"


def _fail(message: str) -> int:
    print(f"rrshift: error: {message}", file=sys.stderr)
    return 2


# --- subcommand handlers ----------------------------------------------------


def _cmd_shift(args) -> int:
    sc = load_scenario(args.scenario)
    if args.routes is None:
        routes = ROUTE_NAMES
    else:
        routes = tuple(r.strip() for r in args.routes.split(",") if r.strip())
        bad = [r for r in routes if r not in ROUTE_NAMES]
        if bad:
            return _fail(f"unknown route(s) {', '.join(sorted(bad))}; "
                         f"choose from {', '.join(ROUTE_NAMES)}")
        if not routes:
            return _fail("--routes must name at least one route")
    traj = sc.build()
    rep = compare_routes(traj, sc.alpha_c, threshold=sc.residual_threshold,
                         n_polar=sc.n_polar, n_azimuth=sc.n_azimuth,
                         n_time=sc.n_time, epsrel=sc.epsrel,
                         routes=routes, serial=args.serial)
    payload = {
        "scenario": sc.raw,
        "alpha_c": rep.alpha_c,
        "threshold": rep.threshold,
        "length_scale": rep.length_scale,
        "routes": list(ROUTE_NAMES),
        "shifts": {name: rep.shifts.get(name) for name in ROUTE_NAMES},
        "residuals": rep.residuals,
        "max_residual": rep.max_residual,
        "pass": rep.passed,
        "errors": rep.errors,
        "timings": {name: (None if args.serial else rep.timings.get(name))
                    for name in ROUTE_NAMES},
    }
    _emit(_dumps(payload), args.out)
    return 0 if rep.passed else 1


def _load_directions(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError([f"cannot read directions file: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"directions file is not valid JSON: {exc}"]) from None
    problems = []
    if not isinstance(data, dict):
        raise ScenarioError(["directions file must be a JSON object"])
    ks = data.get("k")
    if (not isinstance(ks, list) or not ks
            or not all(isinstance(k, (int, float)) and k > 0 for k in ks)):
        problems.append("'k' must be a non-empty list of positive numbers")
    dirs = data.get("directions", data.get("n"))
    if (not isinstance(dirs, list) or not dirs
            or not all(isinstance(n, list) and len(n) == 3
                       and all(isinstance(c, (int, float)) for c in n) for n in dirs)):
        problems.append("'directions' must be a non-empty list of 3-vectors")
    if problems:
        raise ScenarioError(problems)
    units = []
    for n in dirs:
        vec = np.asarray(n, dtype=float)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ScenarioError(["directions must be nonzero vectors"])
        units.append(vec / norm)
    return [float(k) for k in ks], units


def _cmd_spectrum(args) -> int:
    sc = load_scenario(args.scenario)
    ks, dirs = _load_directions(args.directions)
    traj = sc.build()
    window = sc.window(traj)

    def rows_for(n):
        # energy density column: windowed power minus the taper-only
        # baseline, the same subtraction the energy balance check uses
        rows = []
        for k in ks:
            a = amplitude_classical(traj, k, n, window, sc.charge).a
            at = taper_amplitude(traj, k, n, window, sc.charge).a
            power = (np.abs(a[1:]) ** 2).sum() - abs(a[0]) ** 2  # -(A . A*)
            base = (np.abs(at[1:]) ** 2).sum() - abs(at[0]) ** 2
            d2e = k**2 * (power - base) / (2.0 * (2.0 * np.pi) ** 3)
            rows.append([k, n[0], n[1], n[2],
                         a[0].real, a[0].imag, a[1].real, a[1].imag,
                         a[2].real, a[2].imag, a[3].real, a[3].imag, d2e])
        return rows

    header = ["k", "n_x", "n_y", "n_z",
              "re_a0", "im_a0", "re_ax", "im_ax",
              "re_ay", "im_ay", "re_az", "im_az", "d2e_dk_domega"]
    blocks = parallel_map(rows_for, dirs, serial=args.serial)
    _emit(_csv(header, (row for block in blocks for row in block)), args.out)
    return 0


def _cmd_force_profile(args) -> int:
    sc = load_scenario(args.scenario)
    traj = sc.build()
    ts = np.linspace(traj.t_min, 0.0, args.num)
    kin = _flow_sample(traj, ts)[0]
    forces = _coordinate_force(kin, sc.alpha_c)
    header = ["t", "f_x", "f_y", "f_z", "v_x", "v_y", "v_z", "gamma"]
    rows = np.column_stack([ts, forces, kin.v, kin.gamma])
    _emit(_csv(header, rows), args.out)
    return 0


def _cmd_jacobi_dump(args) -> int:
    sc = load_scenario(args.scenario)
    traj = sc.build()
    basis = jacobi_basis(traj, 0.0)
    ts = np.linspace(traj.t_min, 0.0, args.num)
    comps = "xyz"
    header = ["t"]
    header += [f"dx_{comps[i]}{comps[j]}" for j in range(3) for i in range(3)]
    header += [f"dp_{comps[i]}{comps[j]}" for j in range(3) for i in range(3)]
    cols = [ts]
    for field in ("dx", "dp"):
        for j in range(3):
            block = getattr(basis[j], field)(ts)  # (N, 3): response to kick j
            for i in range(3):
                cols.append(block[:, i])
    _emit(_csv(header, np.column_stack(cols)), args.out)
    return 0


def _cmd_convergence(args) -> int:
    sc = load_scenario(args.scenario)
    hbars = None
    if args.hbars is not None:
        try:
            hbars = [float(h) for h in args.hbars.split(",") if h.strip()]
        except ValueError:
            return _fail(f"--hbars must be a comma list of numbers, got {args.hbars!r}")
    out = hbar_convergence(sc, hbars=hbars, serial=args.serial)
    payload = {"scenario": sc.raw, **out, "pass": out.pop("passed")}
    _emit(_dumps(payload), args.out)
    return 0 if payload["pass"] else 1


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, serial=args.serial)
    for res in report.results:
        # the runtime stamp is left out so that --serial stdout is reproducible
        print((dataclasses.replace(res, runtime=None) if args.serial else res).line())
    if args.out:
        payload = {
            "suite": report.suite,
            "pass": report.passed,
            "criteria": [
                {
                    "id": r.cid,
                    "name": r.name,
                    "pass": r.passed,
                    "residual": r.residual,
                    "threshold": r.threshold,
                    "runtime": None if args.serial else r.runtime,
                    "details": r.details,
                }
                for r in report.results
            ],
        }
        Path(args.out).write_text(_dumps(payload))
    return 0 if report.passed else 1


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrshift",
        description="Radiation-reaction position shift: compute it through "
                    "independent routes and verify they agree.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file (or inline JSON)")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--serial", action="store_true",
                       help="single-threaded; timings nulled for byte-identical output")

    p = sub.add_parser("shift", help="run the shift routes and compare them")
    add_common(p)
    p.add_argument("--routes", default=None,
                   help=f"comma list from: {', '.join(ROUTE_NAMES)} (default all)")

    p = sub.add_parser("spectrum", help="windowed emission amplitudes as CSV")
    add_common(p)
    p.add_argument("--directions", required=True,
                   help='JSON file {"k": [...], "directions": [[nx,ny,nz], ...]}')

    p = sub.add_parser("force-profile", help="self-force along the trajectory as CSV")
    add_common(p)
    p.add_argument("--num", type=int, default=513, help="number of sample times")

    p = sub.add_parser("jacobi-dump", help="kick-response entries along the trajectory as CSV")
    add_common(p)
    p.add_argument("--num", type=int, default=257, help="number of sample times")

    p = sub.add_parser("convergence", help="finite-hbar amplitude convergence as JSON")
    add_common(p)
    p.add_argument("--hbars", default=None,
                   help="comma list, strictly decreasing (default from the scenario)")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    add_common(p, scenario=False)
    p.add_argument("--suite", choices=("fast", "full"), default="fast")

    return parser


_HANDLERS = {
    "shift": _cmd_shift,
    "spectrum": _cmd_spectrum,
    "force-profile": _cmd_force_profile,
    "jacobi-dump": _cmd_jacobi_dump,
    "convergence": _cmd_convergence,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage error
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ScenarioError as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())

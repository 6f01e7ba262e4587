"""Acceptance verification: the numbered checks behind `rrshift verify`.

Each criterion builds its own scenario, computes one quantity through at
least two independent routes, and reports the worst residual against a
fixed threshold.  The fast suite runs the sub-two-minute set; the full
suite adds the finite-hbar convergence and amplitude-derivative checks and
tightens the route-agreement threshold.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .dynamics import integrate_trajectory, kinematics
from .lorentz_dirac import _coordinate_force, _four_force
from .parallel import parallel_map
from .scenario import Scenario, ScenarioError, bundled_scenario
from .semiclassical import (
    amplitude_classical,
    amplitude_quantum,
    emission_probability_reduced,
    larmor_radiated_energy,
    radiated_energy,
    shift_from_amplitudes,
    solve_mode_function,
    window_time_range,
)
from .shift import (
    angular_integrals,
    angular_integrals_quadrature,
    compare_routes,
    shift_quantum_closed,
)
from .variational import jacobi_basis, symplectic_product

__all__ = [
    "CriterionResult",
    "SuiteReport",
    "run_criterion",
    "run_suite",
    "hbar_convergence",
    "CRITERION_NAMES",
    "FAST_IDS",
    "FULL_IDS",
]


CRITERION_NAMES = {
    1: "route agreement",
    2: "closed angular forms",
    3: "symplectic identities",
    4: "kick response vs finite differences",
    5: "self-force consistency",
    6: "radiated energy balance",
    7: "hbar convergence",
    8: "cutoff robustness",
    9: "emission probability",
}

FAST_IDS = (1, 2, 3, 4, 5, 6, 7, 9)
FULL_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 9)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    residual: float
    threshold: float
    runtime: float | None = None
    details: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        stamp = "" if self.runtime is None else f" [{self.runtime:.1f}s]"
        return (f"criterion {self.cid} {self.name}: {verdict} "
                f"(residual {self.residual:.3e}, threshold {self.threshold:.1e})"
                f"{stamp}")


@dataclass
class SuiteReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# --- criterion 1: all shift routes agree on four scenarios -----------------


def _criterion_1(full: bool) -> CriterionResult:
    threshold = 1e-5 if full else 1e-4
    tol = 1e-11 if full else 1e-10
    n_polar, n_azimuth = (96, 192) if full else (64, 128)
    epsrel = 1e-12 if full else 1e-11

    worst = 0.0
    parts = []
    ok = True
    for key in ("collinear", "oblique", "spatial", "weak"):
        sc = bundled_scenario(key, tol=tol, residual_threshold=threshold)
        traj = sc.build()
        rep = compare_routes(traj, sc.alpha_c, threshold=threshold,
                             n_polar=n_polar, n_azimuth=n_azimuth, epsrel=epsrel)
        worst = max(worst, rep.max_residual)
        ok = ok and rep.passed
        parts.append(f"{key}: {rep.max_residual:.2e}"
                     + (f" errors={rep.errors}" if rep.errors else ""))
    return CriterionResult(1, CRITERION_NAMES[1], ok and worst < threshold,
                           worst, threshold, details="; ".join(parts))


# --- criterion 2: closed angular moments vs quadrature, plus the ladder ----


def _criterion_2(full: bool) -> CriterionResult:
    rng = np.random.default_rng(41)

    quad_err = 0.0
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = direction * rng.uniform(0.0, 0.9)
        closed = angular_integrals(v)
        num = angular_integrals_quadrature(v, 64, 128)
        for a, b in ((closed.i0, num.i0), (closed.i1, num.i1),
                     (closed.i2, num.i2), (closed.i3, num.i3)):
            scale = max(float(np.max(np.abs(np.asarray(a)))), 1.0)
            quad_err = max(quad_err,
                           float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale)
    quad_ratio = quad_err / 1e-10

    # derivative ladder: dI0/dv = 2 I1, dI1/dv = 3 I2, dI2/dv = 4 I3
    h = 1e-5
    ladder_err = 0.0
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        v = direction * rng.uniform(0.1, 0.85)
        base = angular_integrals(v)
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            plus = angular_integrals(v + step)
            minus = angular_integrals(v - step)
            pairs = (
                ((plus.i0 - minus.i0) / (2 * h), 2.0 * base.i1[j]),
                ((plus.i1 - minus.i1) / (2 * h), 3.0 * base.i2[:, j]),
                ((plus.i2 - minus.i2) / (2 * h), 4.0 * base.i3[:, :, j]),
            )
            for fd, cf in pairs:
                scale = max(float(np.max(np.abs(np.asarray(cf)))), 1.0)
                ladder_err = max(ladder_err,
                                 float(np.max(np.abs(np.asarray(fd) - np.asarray(cf)))) / scale)
    ladder_ratio = ladder_err / 1e-7

    ratio = max(quad_ratio, ladder_ratio)
    details = f"moments {quad_err:.2e} (1e-10); ladder {ladder_err:.2e} (1e-7)"
    return CriterionResult(2, CRITERION_NAMES[2], ratio < 1.0, ratio, 1.0,
                           details=details)


# --- criterion 3: symplectic conservation and the kick-swap identity -------


def _criterion_3(full: bool) -> CriterionResult:
    # the collocated basis's coefficient tail sets the drift; a tight
    # tolerance keeps the conservation check far from its threshold
    sc = bundled_scenario("spatial", tol=3e-13)
    traj = sc.build()

    # conservation of the symplectic pairing between fields kicked at
    # different times, sampled across the whole domain
    grid = np.linspace(traj.t_min, 0.0, 21)
    omega = symplectic_product(jacobi_basis(traj, 0.0), jacobi_basis(traj, 0.5 * traj.t_min),
                               grid)  # (t, i, j)
    scale = np.maximum(1.0, np.max(np.abs(omega), axis=0))
    drift = float(np.max(np.max(np.abs(omega - omega[0]), axis=0) / scale))
    sym_ratio = drift / 1e-9

    # -dx^i_(j)(s; u) = dx^j_(i)(u; s) on a 5 x 5 grid of kick/observation times
    pts = np.linspace(0.85 * traj.t_min, -0.05, 5)
    X = np.stack([jacobi_basis(traj, float(u))(pts)[0] for u in pts])  # [u, s, i, j]
    scale = np.maximum(1.0, np.max(np.abs(X), axis=(2, 3)))
    swapped = np.swapaxes(np.swapaxes(X, 0, 1), 2, 3)  # [u, s, i, j] = dx^j_(i)(u; s)
    swap_err = float(np.max(np.max(np.abs(X + swapped), axis=(2, 3)) / scale))
    swap_ratio = swap_err / 1e-7

    ratio = max(sym_ratio, swap_ratio)
    details = f"symplectic drift {drift:.2e} (1e-9); swap {swap_err:.2e} (1e-7)"
    return CriterionResult(3, CRITERION_NAMES[3], ratio < 1.0, ratio, 1.0,
                           details=details)


# --- criterion 4: the Jacobi basis, which route-d (8) also reads, vs displaced trajectories


def _criterion_4(full: bool) -> CriterionResult:
    threshold = 1e-5
    sc = bundled_scenario("oblique")
    # absolute momentum step 1e-5 (rows: center, +e_j, -e_j); tighter trajectories
    # keep the solver noise well under the differencing scale
    eps = 1e-5
    momenta = sc.p_final + eps * np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    # one common domain: the earliest automatic t_min of the seven
    t_min = min(integrate_trajectory(sc.profile, q, sc.mass, 1e-12).t_min for q in momenta)
    center, *shifted = (integrate_trajectory(sc.profile, q, sc.mass, 1e-12, t_min=t_min)
                        for q in momenta)
    basis = jacobi_basis(center, 0.0)
    rng = np.random.default_rng(44)
    ts = rng.uniform(center.t_min, -0.02 * abs(center.t_min), size=50)

    fd = np.empty((ts.size, 3, 3))  # [t, component, kick]
    for j in range(3):
        fd[:, :, j] = (shifted[j].position(ts) - shifted[3 + j].position(ts)) / (2.0 * eps)
    jac = basis(ts)[0]
    scale = float(np.max(np.abs(fd)))
    rel = float(np.max(np.abs(jac - fd))) / scale
    details = f"50 times in [{center.t_min:.3f}, 0); field scale {scale:.3e}"
    return CriterionResult(4, CRITERION_NAMES[4], rel < threshold, rel, threshold,
                           details=details)


# --- criterion 5: self-force internal consistency and its rest limit -------


def _criterion_5(full: bool) -> CriterionResult:
    threshold = 1e-8

    # gamma * coordinate force = spatial four-force, and u.F = 0, on a
    # 200-point grid across the acceleration interval
    sc = bundled_scenario("oblique")
    traj = sc.build()
    ts = np.linspace(traj.acc_start, traj.acc_end, 200)
    kin = kinematics(traj, ts)
    F = _four_force(kin, sc.alpha_c)
    f = _coordinate_force(kin, sc.alpha_c)
    scale = float(np.max(np.abs(F)))
    match_err = float(np.max(np.abs(kin.gamma[:, None] * f - F[:, 1:]))) / scale
    u = kin.gamma[:, None] * np.column_stack([np.ones(ts.size), kin.v])
    ortho = u[:, 0] * F[:, 0] - np.einsum("ij,ij->i", u[:, 1:], F[:, 1:])
    ortho_err = float(np.max(np.abs(ortho))) / scale

    # at the velocity zero of the overshooting pulse the force must reduce
    # to (2 alpha_c / 3) da/dt with acceleration and jerk both nonzero
    sc2 = bundled_scenario("rest_pulse")
    traj2 = sc2.build()
    t_peak = -0.5 * (sc2.profile.x1 + sc2.profile.x2)
    t_star = brentq(lambda t: traj2.velocity(float(t))[2], traj2.acc_start,
                    t_peak, xtol=1e-15)
    kin2 = kinematics(traj2, [t_star])
    speed = float(np.linalg.norm(kin2.v[0]))
    force = _coordinate_force(kin2, sc2.alpha_c)[0]
    limit = (2.0 * sc2.alpha_c / 3.0) * kin2.adot[0]
    rest_err = float(np.linalg.norm(force - limit) / np.linalg.norm(limit))

    worst = max(match_err, ortho_err, rest_err)
    passed = worst < threshold and speed < 1e-12
    details = (f"gamma-match {match_err:.2e}; u.F {ortho_err:.2e}; "
               f"rest limit {rest_err:.2e} at t* = {t_star:.6f} "
               f"(|v| = {speed:.1e}, |da/dt| = {np.linalg.norm(kin2.adot[0]):.2f})")
    return CriterionResult(5, CRITERION_NAMES[5], passed, worst, threshold,
                           details=details)


# --- criterion 6: windowed spectral energy minus baseline = Larmor ---------


def _criterion_6(full: bool) -> CriterionResult:
    threshold = 1e-3
    # moderate speeds keep the spectrum short
    sc = bundled_scenario("energy")
    traj = sc.build()
    window = sc.window(traj)
    rep = radiated_energy(traj, window, sc.charge, n_polar=16, n_azimuth=32)
    lar = larmor_radiated_energy(traj, sc.alpha_c)
    rel = abs(rep.physical - lar) / abs(lar)
    details = (f"spectral {rep.physical:.6e}, larmor {lar:.6e}, "
               f"k_max {rep.k_max:.1f}, octaves {rep.octaves}")
    return CriterionResult(6, CRITERION_NAMES[6], rel < threshold, rel, threshold,
                           details=details)


# --- criterion 7: finite-hbar amplitude converges to the classical one -----


def hbar_convergence(sc: Scenario, hbars=None) -> dict:
    """Per-component error norms of the finite-hbar amplitude against the
    classical one over seeded (k, n) samples, with consecutive-ratio marks.

    The expected decay is first order: halving hbar should halve the error
    of every amplitude component; a ratio passes at 85 percent of its step
    factor (1.7 for halvings).  Components that are identically zero in
    both routes are skipped.  Per hbar one collocated mode stack holds p and
    every P = p - hbar k n, and `amplitude_quantum` takes it whole; the
    report gives the stack's Wronskian residual (its worst column), its
    worst relative Chebyshev tail and its panel count.
    """
    if sc.profile.axis != "time":
        raise ScenarioError(["hbar convergence requires a time-axis potential"])
    hbars = tuple(float(h) for h in (hbars if hbars is not None else sc.hbars))
    if len(hbars) < 2 or any(h2 >= h1 for h1, h2 in zip(hbars, hbars[1:])):
        raise ScenarioError(["hbars must be a strictly decreasing list"])

    traj = sc.build()
    window = sc.window(traj)
    dur = traj.acc_duration
    rng = np.random.default_rng(sc.seed)
    samples = []
    for _ in range(5):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        samples.append((float(rng.uniform(0.5, 5.0) / dur), n))

    ranges = [window_time_range(traj, n, window) for _, n in samples]
    t_span = (min(lo for lo, _ in ranges) - 0.05 * dur,
              max(max(hi for _, hi in ranges), 0.0) + 0.05 * dur)

    ks, ns = (np.array(column) for column in zip(*samples))
    classical = np.array([amplitude_classical(traj, k, n, window, sc.charge) for k, n in samples])
    comp_errors = []
    stacks = []
    for hbar in hbars:
        # p and every P = p - hbar k n in one collocated solve
        stack = [sc.p_final] + [sc.p_final - hbar * k * n for k, n in samples]
        modes = solve_mode_function(sc.profile, np.array(stack), hbar, t_span, mass=sc.mass)
        quantum = amplitude_quantum(traj, window, modes, ks, ns, sc.charge)
        comp_errors.append(np.sqrt(np.sum(np.abs(quantum - classical) ** 2, axis=0)))
        stacks.append(modes)

    comp_errors = np.array(comp_errors)                   # (n_hbar, 4)
    live = comp_errors[0] > 1e-14 * float(comp_errors[0].max())
    expected = [hbars[i] / hbars[i + 1] for i in range(len(hbars) - 1)]
    comp_ratios = []
    passed = True
    for i, exp in enumerate(expected):
        row = []
        for mu in range(4):
            if not live[mu]:
                row.append(None)
                continue
            r = float(comp_errors[i, mu] / comp_errors[i + 1, mu])
            row.append(r)
            passed = passed and r >= 0.85 * exp
        comp_ratios.append(row)

    totals = np.sqrt((comp_errors**2).sum(axis=1))
    return {
        "hbars": list(hbars),
        "errors": totals.tolist(),
        "ratios": [float(totals[i] / totals[i + 1]) for i in range(len(totals) - 1)],
        "component_errors": comp_errors.tolist(),
        "component_ratios": comp_ratios,
        "expected_ratios": expected,
        "wronskian_residuals": [mode.wronskian_residual() for mode in stacks],
        "mode_tails": [mode.tail for mode in stacks],
        "mode_panels": [mode.panels for mode in stacks],
        "samples": [{"k": k, "n": n.tolist()} for k, n in samples],
        "passed": passed,
    }


def _criterion_7(full: bool) -> CriterionResult:
    # transverse potential components keep every amplitude component alive,
    # and the longer pulse keeps hbar = 0.1 inside the first-order regime for
    # k up to 5/duration
    sc = bundled_scenario("convergence")
    out = hbar_convergence(sc)
    margins = [r / (0.85 * e)
               for row, e in zip(out["component_ratios"], out["expected_ratios"])
               for r in row if r is not None]
    details = (f"errors {['%.3e' % e for e in out['errors']]}, "
               f"component ratios {[[None if r is None else round(r, 3) for r in row] for row in out['component_ratios']]}")
    # the slowest-converging component sets the margin; pass needs every
    # live component ratio at >= 85 percent of its halving factor
    return CriterionResult(7, CRITERION_NAMES[7], out["passed"],
                           1.0 / min(margins), 1.0, details=details)


# --- criterion 8: amplitude-derivative shift matches the closed route ------


def _criterion_8(full: bool) -> CriterionResult:
    threshold = 1e-3
    sc = bundled_scenario("amplitude_shift")
    traj = sc.build()
    window = sc.window(traj)
    basis = jacobi_basis(traj, 0.0)
    closed = shift_quantum_closed(traj, basis, sc.alpha_c)
    scale = float(np.linalg.norm(closed))

    # 8x16 angles: the moment integrands at |v| <= 0.6 are resolved far
    # below the 1e-3 contract by Gauss-Legendre 8 in cos(theta)
    shifts = [shift_from_amplitudes(traj, basis, w, sc.charge, n_polar=8, n_azimuth=16)
              for w in (window, replace(window, width=2.0 * window.width))]

    rel = float(np.linalg.norm(shifts[0] - closed)) / scale
    taper_move = float(np.linalg.norm(shifts[1] - shifts[0])) / scale
    worst = max(rel, taper_move)
    details = (f"route-d {shifts[0].tolist()}; closed {closed.tolist()}; "
               f"taper doubling moved {taper_move:.2e}")
    return CriterionResult(8, CRITERION_NAMES[8], worst < threshold, worst,
                           threshold, details=details)


# --- criterion 9: the two evaluations of the emission probability agree ----


def _criterion_9(full: bool) -> CriterionResult:
    threshold = 1e-8
    sc = bundled_scenario("pulse_single")
    traj = sc.build()
    window = sc.window(traj)
    rep = emission_probability_reduced(traj, window, n_polar=8, n_azimuth=16,
                                       k_max=12.0)
    rel = abs(rep.difference) / abs(rep.assembled)
    details = (f"assembled {rep.assembled:.9e}, double-xi {rep.double_xi:.9e}, "
               f"physical {rep.physical:.6e}, k_max {rep.k_max:.1f}")
    return CriterionResult(9, CRITERION_NAMES[9], rel < threshold, rel, threshold,
                           details=details)


_CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
}


def run_criterion(cid: int, full: bool = False) -> CriterionResult:
    if cid not in _CRITERIA:
        raise ValueError(f"unknown criterion {cid}")
    t0 = _time.perf_counter()
    try:
        result = _CRITERIA[cid](full)
    except Exception as exc:
        result = CriterionResult(cid, CRITERION_NAMES[cid], False,
                                 float("nan"), float("nan"),
                                 details=f"error: {type(exc).__name__}: {exc}")
    result.runtime = _time.perf_counter() - t0
    return result


def run_suite(suite: str = "fast", serial: bool = False) -> SuiteReport:
    """Run the suite's criteria on the thread pool, or in order if serial."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite '{suite}' (choose fast or full)")
    full = suite == "full"
    ids = FULL_IDS if full else FAST_IDS
    results = parallel_map(lambda cid: run_criterion(cid, full), ids, serial=serial)
    return SuiteReport(suite=suite, results=list(results))

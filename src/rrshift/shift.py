"""Radiation-reaction position shift by independent routes.

All routes compute the first-order displacement of the t = 0 arrival point
caused by the radiation-reaction force along the trajectory:

  direct   — integrate the forced variational system (retarded data).
  green    — quadrature of force x unit-kick response, kicks at the
             emission time: dx^i = int dt f^j(t) dx^i_(j)(0; t).
  quantum  — the closed form derived from the emission-amplitude picture,
             int dt { [g^4 (a.v) v + g^2 a]^k d/dt (dx^k/dp^i)_t
                      + [g^6 (a.v)^2 + g^4 a^2] v^k (dx^k/dp^i)_t },
             times 2 alpha_c / 3 (equivalently, after integrating by
             parts, -int dt f^k (dx^k/dp^i)_t).
  quantum_quadrature — the same quantity before the solid-angle integrals
             are done in closed form: a numerical sphere quadrature of the
             retarded-phase integrand built from d^2x^mu/dxi^2 and the
             fixed-xi momentum partials.

Agreement of all four at the configured threshold is the verification
target; the closed-form angular moments used on the way are checked
against their own sphere quadrature.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .dynamics import Trajectory, kinematics
from .lorentz_dirac import ld_coordinate_force
from .parallel import parallel_map
from .variational import jacobi_basis, hamiltonian_hessian, retarded_perturbation

__all__ = [
    "AngularIntegrals",
    "ShiftReport",
    "sphere_quadrature",
    "angular_integrals",
    "angular_integrals_quadrature",
    "classical_shift_direct",
    "classical_shift_green",
    "shift_quantum_closed",
    "shift_quantum_quadrature",
    "compare_routes",
    "ROUTE_NAMES",
]

ROUTE_NAMES = ("direct", "green", "quantum", "quantum_quadrature")


def _gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, `order` points on each
    panel between consecutive `edges`."""
    edges = np.asarray(edges, dtype=float)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * base_x).ravel(), (half[:, None] * base_w).ravel()


def sphere_quadrature(n_polar: int = 64, n_azimuth: int = 128, axis=None):
    """Solid-angle nodes and weights: Gauss-Legendre in cos(theta), uniform
    azimuth.  The polar axis is rotated onto `axis` when given (the moment
    integrands are then azimuthal trig polynomials, integrated exactly)."""
    mu, wmu = np.polynomial.legendre.leggauss(int(n_polar))
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth

    if axis is None:
        ez = np.array([0.0, 0.0, 1.0])
    else:
        axis = np.asarray(axis, dtype=float)
        nrm = np.linalg.norm(axis)
        ez = axis / nrm if nrm > 0 else np.array([0.0, 0.0, 1.0])
    # orthonormal frame completion, deterministic
    trial = np.eye(3)[np.argmin(np.abs(ez))]
    e1 = np.cross(trial, ez)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(ez, e1)

    st = np.sqrt(1.0 - mu**2)
    nodes = (
        mu[:, None, None] * ez[None, None, :]
        + st[:, None, None] * (np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2)
    ).reshape(-1, 3)
    weights = (wmu[:, None] * wphi * np.ones_like(phi)[None, :]).reshape(-1)
    return nodes, weights


@dataclass(frozen=True)
class AngularIntegrals:
    """Solid-angle moments of inverse powers of (1 - n.v).

    i0 = int dO / (1-n.v)^2            i1^i = int dO n^i / (1-n.v)^3
    i2^{ij} = int dO n^i n^j /(...)^4  i3^{ijk} = int dO n^i n^j n^k /(...)^5
    """

    v: np.ndarray
    i0: float
    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray


def angular_integrals(v) -> AngularIntegrals:
    """Closed forms; the derivative ladder i1 = dv(i0)/2, i2 = dv(i1)/3,
    i3 = dv(i2)/4 fixes every coefficient from i0 = 4 pi gamma^2."""
    v = np.asarray(v, dtype=float)
    v2 = v @ v
    if v2 >= 1.0:
        raise ValueError("speed must be below 1")
    g2 = 1.0 / (1.0 - v2)
    pi4 = 4.0 * np.pi
    eye = np.eye(3)
    i0 = pi4 * g2
    i1 = pi4 * g2**2 * v
    i2 = (4.0 * pi4 / 3.0) * g2**3 * np.outer(v, v) + (pi4 / 3.0) * g2**2 * eye
    sym = (
        np.einsum("i,jk->ijk", v, eye)
        + np.einsum("j,ik->ijk", v, eye)
        + np.einsum("k,ij->ijk", v, eye)
    )
    i3 = 2.0 * pi4 * g2**4 * np.einsum("i,j,k->ijk", v, v, v) + (pi4 / 3.0) * g2**3 * sym
    return AngularIntegrals(v=v, i0=float(i0), i1=i1, i2=i2, i3=i3)


def angular_integrals_quadrature(v, n_polar: int = 64, n_azimuth: int = 128) -> AngularIntegrals:
    """Sphere-quadrature evaluation of the same moments (oracle route)."""
    v = np.asarray(v, dtype=float)
    if v @ v >= 1.0:
        raise ValueError("speed must be below 1")
    nodes, w = sphere_quadrature(n_polar, n_azimuth, axis=v if v @ v > 0 else None)
    xd = 1.0 - nodes @ v
    i0 = float(np.sum(w / xd**2))
    i1 = (w / xd**3) @ nodes
    i2 = np.einsum("n,ni,nj->ij", w / xd**4, nodes, nodes)
    i3 = np.einsum("n,ni,nj,nk->ijk", w / xd**5, nodes, nodes, nodes)
    return AngularIntegrals(v=v, i0=i0, i1=i1, i2=i2, i3=i3)


# ---------------------------------------------------------------------------
# shift routes
# ---------------------------------------------------------------------------


def _jacobi_matrices(basis, t: float):
    """Position response X (columns = kick directions) and dX/dt at one
    time, evaluated from the stacked dense solution."""
    y = basis[0]._eval(t)[0]
    X = y[:9].reshape(3, 3)
    h = hamiltonian_hessian(basis[0].traj, t)
    return X, h.h_xp.T @ X + h.h_pp @ y[9:].reshape(3, 3)


def _support_quad(traj, f, epsrel=1e-11):
    """Adaptive quadrature of a vector integrand over the forcing support."""
    a, b = traj.acc_start, traj.acc_end
    cuts = [a] + list(traj.breakpoints) + [b]
    total = np.zeros(3)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = quad_vec(f, lo, hi, epsabs=1e-300, epsrel=epsrel)
        total += val
    return total


def classical_shift_direct(traj: Trajectory, alpha_c: float) -> np.ndarray:
    """Route a: endpoint of the retarded forced variational solution."""
    return retarded_perturbation(traj, alpha_c).final_shift


def classical_shift_green(
    traj: Trajectory,
    alpha_c: float,
    basis=None,
    epsrel: float = 1e-11,
) -> np.ndarray:
    """Route b: dx^i = int dt f^j(t) dx^i_(j)(0; t).

    The kicked-at-t response is rewritten through the symplectic swap
    identity dx^i_(j)(0;t) = -dx^j_(i)(t;0), so the three t = 0 fields are
    reused at every quadrature node.
    """
    if basis is None:
        basis = jacobi_basis(traj, 0.0)

    def f(t):
        force = ld_coordinate_force(traj, t, alpha_c)
        X, _ = _jacobi_matrices(basis, t)
        return -(force @ X)  # -f^j X[j, i]

    return _support_quad(traj, f, epsrel)


def shift_quantum_closed(
    traj: Trajectory,
    basis=None,
    alpha_c: float = 1.0,
    epsrel: float = 1e-11,
) -> np.ndarray:
    """Route c: closed angular form of the emission-amplitude shift.

    Integrates the two-term bracket as written; integrating it by parts
    gives -int dt f^k (dx^k/dp^i)_t, which is route b's integrand.
    """
    if basis is None:
        basis = jacobi_basis(traj, 0.0)

    pref = 2.0 * alpha_c / 3.0

    def f(t):
        kin = kinematics(traj, float(t))
        v, a = kin.v, kin.a
        g2 = kin.gamma**2
        av = a @ v
        B = g2**2 * av * v + g2 * a
        C = (g2**3 * av**2 + g2**2 * (a @ a)) * v
        X, Xdot = _jacobi_matrices(basis, float(t))
        return pref * (B @ Xdot + C @ X)

    return _support_quad(traj, f, epsrel)


def shift_quantum_quadrature(
    traj: Trajectory,
    basis=None,
    alpha_c: float = 1.0,
    n_polar: int = 64,
    n_azimuth: int = 128,
    n_time: int = 320,
) -> np.ndarray:
    """Route c': sphere quadrature of the retarded-phase integrand.

    For each direction n with xi-rate xd = 1 - n.v:
        d^2t/dxi^2   = (n.a)/xd^3
        d^2x^j/dxi^2 = (xd a^j + (n.a) v^j)/xd^3
        (dt/dp^i)_xi  = n.J_i/xd,
        (dx^j/dp^i)_xi = J^j_i + (n.J_i) v^j/xd,
    with J the fixed-t momentum-to-position response; the integrand is the
    Minkowski contraction d^2x_mu/dxi^2 * d/dt (dx^mu/dp^i)_xi and the
    shift is -(alpha_c/4pi) int dO int dt of it.
    """
    if basis is None:
        basis = jacobi_basis(traj, 0.0)

    lo, hi = traj.acc_start, traj.acc_end
    cuts = [lo] + [c for c in sorted(traj.breakpoints) if lo < c < hi] + [hi]
    t_nodes, t_w = _gauss_panels(cuts, max(n_time // (len(cuts) - 1), 6))
    total = np.zeros(3)
    for t, wt in zip(t_nodes, t_w):
        kin = kinematics(traj, float(t))
        v, a = kin.v, kin.a
        X, Xdot = _jacobi_matrices(basis, float(t))

        nodes, w = sphere_quadrature(n_polar, n_azimuth, axis=v if v @ v > 0 else None)
        xd = 1.0 - nodes @ v          # (N,)
        na = nodes @ a                # (N,)
        d2t = na / xd**3
        d2x = (xd[:, None] * a[None, :] + na[:, None] * v[None, :]) / (xd**3)[:, None]

        nJ = nodes @ X                # (N, 3): n.J_i per kick i
        nJd = nodes @ Xdot
        dS0 = nJd / xd[:, None] + nJ * (na / xd**2)[:, None]               # (N, i)
        dS = (
            Xdot[None, :, :]
            + (nJd / xd[:, None])[:, None, :] * v[None, :, None]
            + (nJ / xd[:, None])[:, None, :] * a[None, :, None]
            + (nJ * (na / xd**2)[:, None])[:, None, :] * v[None, :, None]
        )                                                                   # (N, j, i)
        integrand = d2t[:, None] * dS0 - np.einsum("nj,nji->ni", d2x, dS)
        total += wt * (w @ integrand)
    return -(alpha_c / (4.0 * np.pi)) * total


@dataclass
class ShiftReport:
    """Cross-route comparison result."""

    alpha_c: float
    threshold: float
    shifts: dict = field(default_factory=dict)        # route -> (3,) array or None
    residuals: np.ndarray = field(default_factory=lambda: np.full((4, 4), np.nan))
    max_residual: float = np.nan
    passed: bool = False
    timings: dict = field(default_factory=dict)       # route -> seconds
    errors: dict = field(default_factory=dict)        # route -> message
    length_scale: float = 1.0


def compare_routes(
    traj: Trajectory,
    alpha_c: float,
    threshold: float = 1e-4,
    n_polar: int = 64,
    n_azimuth: int = 128,
    n_time: int = 320,
    epsrel: float = 1e-11,
    routes=ROUTE_NAMES,
    serial: bool = False,
) -> ShiftReport:
    """Evaluate the requested routes and their pairwise relative residuals.

    The residual between two routes is |dxA - dxB| / max(|dx_green|, floor)
    with floor = 1e-16 times the trajectory length scale; PASS means every
    computed pair is below the threshold.  A route failure is recorded, not
    raised.  Routes run on a thread pool unless serial is set; either way
    the numbers are identical because the routes share nothing mutable.
    """
    report = ShiftReport(alpha_c=alpha_c, threshold=threshold)
    report.length_scale = max(float(np.linalg.norm(traj.position(traj.t_min))), 1.0)

    basis = None
    if any(r in routes for r in ("green", "quantum", "quantum_quadrature")):
        basis = jacobi_basis(traj, 0.0)

    runners = {
        "direct": lambda: classical_shift_direct(traj, alpha_c),
        "green": lambda: classical_shift_green(traj, alpha_c, basis=basis, epsrel=epsrel),
        "quantum": lambda: shift_quantum_closed(traj, basis, alpha_c, epsrel=epsrel),
        "quantum_quadrature": lambda: shift_quantum_quadrature(
            traj, basis, alpha_c, n_polar=n_polar, n_azimuth=n_azimuth, n_time=n_time
        ),
    }

    def run_one(name):
        t0 = _time.perf_counter()
        try:
            return name, runners[name](), None, _time.perf_counter() - t0
        except Exception as exc:  # record, keep the report schema stable
            return name, None, f"{type(exc).__name__}: {exc}", _time.perf_counter() - t0

    active = [name for name in ROUTE_NAMES if name in routes]
    for name in ROUTE_NAMES:
        if name not in routes:
            report.shifts[name] = None
    for name, shift, err, elapsed in parallel_map(run_one, active, serial=serial):
        report.shifts[name] = shift
        if err is not None:
            report.errors[name] = err
        report.timings[name] = elapsed

    ref = report.shifts.get("green")
    if ref is None:
        ref = next((s for s in report.shifts.values() if s is not None), None)
    denom = max(float(np.linalg.norm(ref)) if ref is not None else 0.0,
                1e-16 * report.length_scale)

    n = len(ROUTE_NAMES)
    res = np.full((n, n), np.nan)
    worst = 0.0
    complete = True
    for i, ni in enumerate(ROUTE_NAMES):
        si = report.shifts.get(ni)
        if si is None:
            if ni in routes:
                complete = False
            continue
        res[i, i] = 0.0
        for j in range(i + 1, n):
            sj = report.shifts.get(ROUTE_NAMES[j])
            if sj is None:
                continue
            r = float(np.linalg.norm(si - sj)) / denom
            res[i, j] = res[j, i] = r
            worst = max(worst, r)
    report.residuals = res
    report.max_residual = worst
    report.passed = complete and not report.errors and worst < threshold
    return report

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
             fixed-xi momentum partials.  The sphere sum is `_moments`:
             the `sphere_quadrature` grid (64 x 128 nodes by default) in the
             frame whose polar axis is v(t), as polar sums of azimuthal
             pre-sums.

The green, quantum and quantum_quadrature time integrals all use
`_support_integral`: Gauss-Legendre on the collocated Jacobi basis's panels,
which refine the trajectory's, each cut into _SUB_PANELS pieces, 16 points
checked against 8.

Agreement of all four at the configured threshold is the verification
target; the closed-form angular moments used on the way are checked
against `_moments`, the sphere sum route c' runs.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import Trajectory, kinematics
from .lorentz_dirac import _coordinate_force
from .variational import (_hessian_blocks, _rowdot, _zero_kick_basis, jacobi_basis,
                          retarded_perturbation)

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
_SUB_PANELS = 4  # Gauss-Legendre pieces per panel of the time quadrature


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The `order`-point Gauss-Legendre rule on [-1, 1], computed once per
    order and shared, so its arrays are read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, `order` points on each
    panel between consecutive `edges`."""
    edges = np.asarray(edges, dtype=float)
    base_x, base_w = _leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * base_x).ravel(), (half[:, None] * base_w).ravel()


def _polar_frames(axes) -> np.ndarray:
    """Orthonormal frames with rows (e1, e2, ez), shape (N, 3, 3), whose
    polar axis ez points along each row of `axes`; a zero row gets ez = z.
    The completion is deterministic."""
    axes = np.asarray(axes, dtype=float)
    nrm = np.sqrt(_rowdot(axes, axes))
    ez = np.where((nrm > 0)[:, None], axes / np.where(nrm > 0, nrm, 1.0)[:, None],
                  np.array([0.0, 0.0, 1.0]))
    trial = np.eye(3)[np.argmin(np.abs(ez), axis=1)]
    e1 = np.cross(trial, ez)
    e1 /= np.sqrt(_rowdot(e1, e1))[:, None]
    e2 = np.cross(ez, e1)
    return np.stack([e1, e2, ez], axis=1)


def _frame_grid(n_polar: int, n_azimuth: int):
    """The sphere grid in the frame of its polar axis: Gauss-Legendre in
    mu = cos(theta), uniform azimuth phi.  Returns the directions
    b = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)), shape
    (n_polar, n_azimuth, 3), the polar weights and the azimuthal weight.
    `b @ _polar_frames([axis])[0]` is the node set for that axis."""
    mu, wmu = _leggauss(int(n_polar))
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    st = np.sqrt(1.0 - mu**2)
    b = np.stack(np.broadcast_arrays(st[:, None] * np.cos(phi), st[:, None] * np.sin(phi),
                                     mu[:, None]), axis=-1)
    return b, wmu, 2.0 * np.pi / n_azimuth


def sphere_quadrature(n_polar: int = 64, n_azimuth: int = 128, axis=None):
    """Solid-angle nodes and weights: `_frame_grid` rotated so that its polar
    axis lies along `axis` (z when not given or zero), flattened to (M, 3)
    and (M,).  Integrands that depend on the azimuth about `axis` only as a
    trig polynomial are then integrated exactly."""
    b, wmu, wphi = _frame_grid(n_polar, n_azimuth)
    frame = _polar_frames(np.reshape(np.zeros(3) if axis is None else axis, (1, 3)))[0]
    return (b @ frame).reshape(-1, 3), np.outer(wmu, np.full(n_azimuth, wphi)).ravel()


def _moments(speed, n_polar: int, n_azimuth: int):
    """Sphere-quadrature moments I_k = sum_n w n^(x)k / (1 - n.v)^(k+2),
    k = 0..3, for velocities v of the given `speed` (N,), each written in
    the frame whose polar axis is v (`_polar_frames`).  There 1 - n.v =
    1 - mu |v| depends on the polar node alone, so each I_k is a polar sum
    of azimuthal pre-sums of b^(x)k.  Shapes (N,), (N, 3), (N, 3, 3) and
    (N, 3, 3, 3)."""
    b, wmu, wphi = _frame_grid(n_polar, n_azimuth)
    mu = b[:, 0, 2]
    presums = [np.full(len(mu), wphi * n_azimuth), wphi * b.sum(axis=1),
               wphi * np.einsum("pai,paj->pij", b, b),
               wphi * np.einsum("pai,paj,pak->pijk", b, b, b)]
    xd = 1.0 - np.outer(speed, mu)                                      # (N, polar)
    I0, I1, I2, I3 = ((wmu / xd**(k + 2)) @ S.reshape(len(mu), -1)
                      for k, S in enumerate(presums))
    return I0[:, 0], I1, I2.reshape(-1, 3, 3), I3.reshape(-1, 3, 3, 3)


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
    """Sphere-quadrature evaluation of the same moments: the `_moments` sum
    that route c' runs, at one velocity, rotated from the frame of v into
    the lab."""
    v = np.asarray(v, dtype=float)
    if v @ v >= 1.0:
        raise ValueError("speed must be below 1")
    (i0,), (i1,), (i2,), (i3,) = _moments(np.sqrt([v @ v]), n_polar, n_azimuth)
    F = _polar_frames([v])[0]                                           # rows e1, e2, ez
    return AngularIntegrals(v=v, i0=float(i0), i1=i1 @ F, i2=F.T @ i2 @ F,
                            i3=np.einsum("pqr,pi,qj,rk->ijk", i3, F, F, F))


# ---------------------------------------------------------------------------
# shift routes
# ---------------------------------------------------------------------------


def _support_integral(f, traj, basis=None, epsrel=1e-11):
    """Integral over [acc_start, acc_end] of the batched integrand
    f(ts) -> (N, ...): 16-point Gauss-Legendre on the panels of the Jacobi
    `basis` (which refine the trajectory's, its joins among them) or, with
    no basis, of the trajectory, where the piecewise forms f reads have
    kinks, each cut into _SUB_PANELS equal pieces.  RuntimeError unless the
    8-point sum on the same pieces agrees to epsrel relative."""
    edges = traj.ts if basis is None else basis.ts
    pieces = np.arange(_SUB_PANELS) / _SUB_PANELS
    cuts = np.append(edges[:-1, None] + np.diff(edges)[:, None] * pieces, edges[-1])
    (t16, w16), (t8, w8) = _gauss_panels(cuts, 16), _gauss_panels(cuts, 8)
    values = f(np.concatenate([t16, t8]))
    fine, coarse = w16 @ values[:len(t16)], w8 @ values[len(t16):]
    err, size = np.linalg.norm(fine - coarse), np.linalg.norm(fine)
    if not err <= epsrel * size:
        raise RuntimeError(f"quadrature not converged: 8- and 16-point sums differ by "
                           f"{err:.3e} at size {size:.3e}, above epsrel {epsrel:.1e}")
    return fine


def _response_sample(traj, basis, ts):
    """Kinematics, X (columns = kick directions) and dX/dt, (N, 3, 3), at ts."""
    kin = kinematics(traj, ts)
    _, h_xp, h_pp = _hessian_blocks(traj, kin)
    X, K = basis(ts)
    return kin, X, np.swapaxes(h_xp, 1, 2) @ X + h_pp @ K


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
    reused at every quadrature node.  RuntimeError if the integral misses epsrel.
    """
    basis = _zero_kick_basis(traj, basis)

    def f(ts):
        force = _coordinate_force(kinematics(traj, ts), alpha_c)
        return -np.einsum("nj,nji->ni", force, basis(ts)[0])  # -f^j X[j, i]

    return _support_integral(f, traj, basis, epsrel)


def shift_quantum_closed(
    traj: Trajectory,
    basis=None,
    alpha_c: float = 1.0,
    epsrel: float = 1e-11,
) -> np.ndarray:
    """Route c: closed angular form of the emission-amplitude shift.

    Integrates the two-term bracket as written; integrating it by parts
    gives -int dt f^k (dx^k/dp^i)_t, which is route b's integrand.
    RuntimeError if the time integral misses epsrel.
    """
    basis = _zero_kick_basis(traj, basis)

    def f(ts):
        kin, X, Xdot = _response_sample(traj, basis, ts)
        v, a, g2 = kin.v, kin.a, kin.gamma**2
        av = _rowdot(a, v)
        B = (g2**2 * av)[:, None] * v + g2[:, None] * a
        C = (g2**3 * av**2 + g2**2 * _rowdot(a, a))[:, None] * v
        return (2.0 * alpha_c / 3.0) * (np.einsum("nj,nji->ni", B, Xdot)
                                         + np.einsum("nj,nji->ni", C, X))

    return _support_integral(f, traj, basis, epsrel)


def shift_quantum_quadrature(
    traj: Trajectory,
    basis=None,
    alpha_c: float = 1.0,
    n_polar: int = 64,
    n_azimuth: int = 128,
    epsrel: float = 1e-11,
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

    Summed over the directions, the integrand for kick i is
        (1-v^2) (I2[a, dJ_i] + I3[a, a, J_i]) - I0 a.dJ_i - (a.v) I1.dJ_i
        - (a.a) I1.J_i - 2 (a.v) I2[a, J_i] - (v.dJ_i) I1.a,
    with dJ = dJ/dt and I_k the `_moments` sums of w n^(x)k / xd^(k+2) in
    the frame of v.  The time integral is `_support_integral`'s, so a miss
    of epsrel raises RuntimeError.
    """
    basis = _zero_kick_basis(traj, basis)

    def f(ts):
        kin, X, Xdot = _response_sample(traj, basis, ts)
        v, a = kin.v, kin.a
        speed = np.sqrt(_rowdot(v, v))
        I0, I1, I2, I3 = _moments(speed, n_polar, n_azimuth)
        # a, X and dX/dt in the frame of v; dot products are frame-free
        F = _polar_frames(v)
        af = np.einsum("nij,nj->ni", F, a)
        Xf, Xdf = F @ X, F @ Xdot
        av, aa = _rowdot(a, v), _rowdot(a, a)
        aI2 = np.einsum("np,npq->nq", af, I2)
        aaI3 = np.einsum("np,nq,npqr->nr", af, af, I3)
        return (
            (1.0 - speed**2)[:, None] * (np.einsum("nq,nqi->ni", aI2, Xdf)
                                         + np.einsum("nr,nri->ni", aaI3, Xf))
            - I0[:, None] * np.einsum("nj,nji->ni", a, Xdot)
            - av[:, None] * np.einsum("np,npi->ni", I1, Xdf)
            - aa[:, None] * np.einsum("np,npi->ni", I1, Xf)
            - 2.0 * av[:, None] * np.einsum("nq,nqi->ni", aI2, Xf)
            - np.einsum("nj,nji->ni", v, Xdot) * np.einsum("np,np->n", I1, af)[:, None]
        )                                                               # (N, kick i)

    return -(alpha_c / (4.0 * np.pi)) * _support_integral(f, traj, basis, epsrel)


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
    epsrel: float = 1e-11,
    routes=ROUTE_NAMES,
) -> ShiftReport:
    """Evaluate the requested routes and their pairwise relative residuals.

    The residual between two routes is |dxA - dxB| / max(|dx_green|, floor)
    with floor = 1e-16 times the trajectory length scale; PASS means every
    computed pair is below the threshold.  n_polar x n_azimuth is the sphere
    grid of route c'; epsrel is the time-integral tolerance of routes b, c
    and c'.
    Routes run in order, so each timing is that route's own wall time; a
    route failure is recorded, not raised.  ValueError unless `routes`
    names at least one route and only names from ROUTE_NAMES.
    """
    routes = tuple(routes)
    bad = sorted(set(routes) - set(ROUTE_NAMES))
    if bad or not routes:
        named = f"unknown route(s) {', '.join(bad)}" if bad else "no route named"
        raise ValueError(f"{named}; choose from {', '.join(ROUTE_NAMES)}")
    report = ShiftReport(alpha_c=alpha_c, threshold=threshold, shifts=dict.fromkeys(ROUTE_NAMES))
    report.length_scale = max(float(np.linalg.norm(traj.position(traj.t_min))), 1.0)

    basis = None
    if any(r in routes for r in ("green", "quantum", "quantum_quadrature")):
        basis = jacobi_basis(traj, 0.0)

    runners = {
        "direct": lambda: classical_shift_direct(traj, alpha_c),
        "green": lambda: classical_shift_green(traj, alpha_c, basis=basis, epsrel=epsrel),
        "quantum": lambda: shift_quantum_closed(traj, basis, alpha_c, epsrel=epsrel),
        "quantum_quadrature": lambda: shift_quantum_quadrature(
            traj, basis, alpha_c, n_polar=n_polar, n_azimuth=n_azimuth, epsrel=epsrel
        ),
    }

    for name in ROUTE_NAMES:
        if name not in routes:
            continue
        t0 = _time.perf_counter()
        try:
            report.shifts[name] = runners[name]()
        except Exception as exc:  # record, keep the report schema stable
            report.errors[name] = f"{type(exc).__name__}: {exc}"
        report.timings[name] = _time.perf_counter() - t0

    ref = report.shifts.get("green")
    if ref is None:
        ref = next((s for s in report.shifts.values() if s is not None), None)
    denom = max(float(np.linalg.norm(ref)) if ref is not None else 0.0,
                1e-16 * report.length_scale)

    n = len(ROUTE_NAMES)
    res = np.full((n, n), np.nan)
    worst = 0.0
    for i, ni in enumerate(ROUTE_NAMES):
        si = report.shifts.get(ni)
        if si is None:  # not requested, or failed and recorded in errors
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
    report.passed = not report.errors and worst < threshold
    return report

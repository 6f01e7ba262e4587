"""Linearized (variational) flow around the unperturbed trajectory.

The first-order response to a disturbance obeys

    d/dt dx^i =  H_{x^j P^i} dx^j + H_{P^j P^i} dP^j,
    d/dt dP^i = -H_{x^i x^j} dx^j - H_{x^i P^j} dP^j + f^i(t),

with the Hessian of H = sqrt((P-V)^2 + m^2) + V^0 evaluated on the
unperturbed flow and f an optional forcing (zero for Jacobi fields, the
radiation-reaction force for the retarded perturbation).

`jacobi_basis(traj, s)` solves the three unit kicks at s together, with
data dx(s) = 0, dP^i(s) = delta^{ij}, and returns one basis: evaluated at
times t it gives the position and momentum blocks X and K, each (N, 3, 3)
with column j the kick in direction j.  X at fixed t is the
momentum-to-position response matrix (dx^i/dp^j)_t used by the shift
quadratures.  Inside the forcing the basis is collocated by the `dynamics`
panel engine on the trajectory's panels (cut at s when s lies inside one),
with the Hessian sampled once at every node; outside it V is constant, so
K is constant and X(t) = X(t_b) + (t - t_b) h_pp K from the nearer end t_b.
The basis's panel edges are where X and K may have kinks.  The retarded
perturbation is a DOP853 solve of the forced system on the state [x, P,
dx, dP], with the flow (x, P) riding along, restarted at acc_start, each
breakpoint and acc_end, so no step straddles a join of the forcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (Trajectory, _cheb_operators, _DenseSolution, _domain_times, _flow_at,
                       _linear_panels, _panel_eval, _panel_nodes, _panel_tails, _refine_panels,
                       kinematics)
from .lorentz_dirac import _coordinate_force, ld_coordinate_force
from .potentials import axis_index

__all__ = [
    "HessianSample",
    "JacobiBasis",
    "Perturbation",
    "hamiltonian_hessian",
    "jacobi_basis",
    "symplectic_product",
    "retarded_perturbation",
]


@dataclass(frozen=True)
class HessianSample:
    """Second derivatives of H at one flow point.

    h_xp[i, j] = d^2 H / dx^i dP^j; h_xx and h_pp are symmetric.
    """

    t: float
    h_xx: np.ndarray
    h_xp: np.ndarray
    h_pp: np.ndarray


def _rowdot(a, b):
    """Row-wise a . b of (N, 3) arrays; each row is the same BLAS dot that
    `a[k] @ b[k]` computes, so N points and one point agree bitwise."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _hessian_blocks(traj: Trajectory, kin):
    """h_xx, h_xp and h_pp, each (N, 3, 3), from one flow sample."""
    v, sigma, V1, V2 = kin.v, kin.sigma, kin.dV, kin.d2V
    h_pp = (np.eye(3) - v[:, :, None] * v[:, None, :]) / sigma[:, None, None]

    ai = axis_index(traj.profile)
    h_xx = np.zeros((len(sigma), 3, 3))
    h_xp = np.zeros((len(sigma), 3, 3))
    if ai is not None:
        V1s, V2s = V1[:, 1:], V2[:, 1:]
        vdV1 = _rowdot(v, V1s)
        h_xp[:, ai, :] = (-V1s + v * vdV1[:, None]) / sigma[:, None]
        h_xx[:, ai, ai] = (V2[:, 0] - (_rowdot(kin.w, V2s) - _rowdot(V1s, V1s)) / sigma
                           - vdV1**2 / sigma)
    return h_xx, h_xp, h_pp


def hamiltonian_hessian(traj: Trajectory, t: float) -> HessianSample:
    """Closed-form Hessian of H on the unperturbed trajectory."""
    h_xx, h_xp, h_pp = _hessian_blocks(traj, kinematics(traj, [float(t)]))
    return HessianSample(t=float(t), h_xx=h_xx[0], h_xp=h_xp[0], h_pp=h_pp[0])


def _linear_rhs(traj, alpha_c):
    """RHS of the forced variational system on the state [x, P, Y],
    flattened: the flow (x, P) rides along, Y holds rows dx and dP, one
    column per solution, and the Lorentz-Dirac coordinate force with
    coupling alpha_c forces dP."""
    ai = axis_index(traj.profile)
    e_a = np.zeros(3) if ai is None else np.eye(3)[ai]

    def rhs(t, y):
        Y = y[6:].reshape(6, -1)
        kin = _flow_at(traj.profile, traj.mass, np.atleast_1d(t), y[None, :3], y[None, 3:6])
        h_xx, h_xp, h_pp = (h[0] for h in _hessian_blocks(traj, kin))
        dX = h_xp.T @ Y[:3] + h_pp @ Y[3:]
        dK = -h_xx @ Y[:3] - h_xp @ Y[3:]
        dK += _coordinate_force(kin, alpha_c)[0][:, None]
        dP = e_a * (kin.v[0] @ kin.dV[0, 1:] - kin.dV[0, 0])
        return np.concatenate([kin.v[0], dP, dX.ravel(), dK.ravel()])

    return rhs


def _fit_basis(traj, s, edges):
    """Each panel's worst relative coefficient tail (of X and of K, each
    field's rows jointly), the Chebyshev coefficients of the blocks on the
    panels between edges, (P, n + 1, 18) in (block, row, kick) order, and
    the coasting data (state (6, 3), h_pp) at edges[0] and edges[-1].  The
    system matrix [[h_xp^T, h_pp], [-h_xx, -h_xp]] comes from one flow sample
    at all nodes; the unit kicks start at s, an edge when s lies inside the
    forcing, else on the coasting line that reaches its nearer end."""
    t = _panel_nodes(edges)
    n_pan, k = t.shape
    h_xx, h_xp, h_pp = _hessian_blocks(traj, kinematics(traj, t.ravel()))
    A = np.block([[np.swapaxes(h_xp, 1, 2), h_pp], [-h_xx, -h_xp]]).reshape(n_pan, k, 6, 6)
    h_in, h_out = A[0, -1, :3, 3:], A[-1, 0, :3, 3:]  # h_pp at the first and the last edge
    y = np.vstack([np.zeros((3, 3)), np.eye(3)])
    if s <= edges[0]:
        y[:3] = (edges[0] - s) * h_in
    elif s >= edges[-1]:
        y[:3] = (edges[-1] - s) * h_out
    vals, y_lo, y_hi = _linear_panels(A * (0.5 * np.diff(edges))[:, None, None, None], y,
                                      min(int(np.searchsorted(edges, s)), n_pan))
    coefs = _cheb_operators(k - 1)[2] @ vals.transpose(0, 2, 1, 3).reshape(n_pan, k, 18)
    fields = np.swapaxes(coefs.reshape(n_pan, k, 2, 3, 3), -1, -2)  # last axis: a field's rows
    return _panel_tails(fields), coefs, ((y_lo, h_in), (y_hi, h_out))


class JacobiBasis:
    """The three unit-kick Jacobi fields of `traj` with one kick time `s`,
    solved as one system.  `basis(t)` gives the position block X and the
    momentum block K from one evaluation, each of shape (N, 3, 3), or (3, 3)
    for a scalar t, with column j the response to the kick in direction j:
    X[..., i, j] = dx^i_(j)(t; s) and K[..., i, j] = dP^i_(j)(t; s).
    `ts` holds the collocation panel edges from acc_start to acc_end (the
    trajectory's, s when it lies between them, and any halvings), where the
    blocks may have kinks; outside them the coasting forms are exact."""

    def __init__(self, traj, s, ts, coefs, coast):
        self.traj, self.s, self.ts = traj, s, ts
        self._coefs, self._coast = coefs, coast

    def __call__(self, t):
        t_arr = _domain_times(t, self.traj.t_min, 0.0, "variational")
        out = np.empty((t_arr.size, 6, 3))
        early, late = t_arr <= self.ts[0], t_arr >= self.ts[-1]
        for side, t_b, (y, h_pp) in zip((early, late), self.ts[[0, -1]], self._coast):
            out[side, :3] = y[:3] + (t_arr[side] - t_b)[:, None, None] * (h_pp @ y[3:])
            out[side, 3:] = y[3:]
        inner = ~early & ~late
        out[inner] = _panel_eval(self._coefs, self.ts, t_arr[inner],
                                 np.searchsorted(self.ts, t_arr[inner]) - 1).reshape(-1, 6, 3)
        out = out.reshape(np.shape(t) + (6, 3))
        return out[..., :3, :], out[..., 3:, :]


def jacobi_basis(traj: Trajectory, s: float) -> JacobiBasis:
    """The three unit-kick fields anchored at kick time s, collocated
    together on the trajectory's panels (cut at s when s lies inside one)
    from one `kinematics` sample of their nodes and chained both ways from
    s; the trajectory's tol bounds each panel's relative coefficient tail,
    and a panel that misses it after its halvings raises RuntimeError."""
    s = float(s)
    if not (traj.t_min - 1e-12 <= s <= 1e-12):
        raise ValueError(f"kick time {s} outside [{traj.t_min}, 0]")
    edges = traj.ts
    if edges[0] < s < edges[-1]:
        edges = np.unique(np.append(edges, s))
    edges, (_, coefs, coast) = _refine_panels(lambda e: _fit_basis(traj, s, e), edges,
                                              traj.tol, "Jacobi basis collocation")
    return JacobiBasis(traj, s, edges, coefs, coast)


def _zero_kick_basis(traj: Trajectory, basis: JacobiBasis | None) -> JacobiBasis:
    """The kick-time-0 basis of traj that the shift routes read: `basis`
    itself, or a new solve when it is None; ValueError for the basis of
    another trajectory or another kick time."""
    if basis is None:
        return jacobi_basis(traj, 0.0)
    if basis.traj is not traj:
        raise ValueError("basis belongs to a different trajectory")
    if basis.s != 0.0:
        raise ValueError(f"basis is kicked at s = {basis.s:.6g}, not at the anchor t = 0")
    return basis


def symplectic_product(b1: JacobiBasis, b2: JacobiBasis, t) -> np.ndarray:
    """Omega[i, j] = dx_(i)^1 . dP_(j)^2 - dx_(j)^2 . dP_(i)^1 between the
    fields of two bases, shape (N, 3, 3) or (3, 3) for a scalar t; conserved
    along t for any two bases of one flow."""
    if b1.traj is not b2.traj:
        raise ValueError("bases belong to different trajectories")
    (X1, K1), (X2, K2) = b1(t), b2(t)
    return (np.einsum("...ki,...kj->...ij", X1, K2)
            - np.swapaxes(np.einsum("...ki,...kj->...ij", X2, K1), -1, -2))


class Perturbation:
    """Retarded solution of the forced variational system."""

    def __init__(self, traj, dense):
        self.traj = traj
        self._dense = dense

    def delta_x(self, t):
        return self._dense(t)[..., 6:9]

    def delta_p(self, t):
        return self._dense(t)[..., 9:]

    @property
    def final_shift(self) -> np.ndarray:
        return self.delta_x(0.0)


def retarded_perturbation(traj: Trajectory, alpha_c: float) -> Perturbation:
    """Integrate the radiation-reaction-forced system from rest at t_min.

    Data dx = dP = 0 at t_min (retarded boundary condition: nothing before
    the force turns on); the value at t = 0 is the direct-route shift.
    """
    # dx, dP get an absolute tolerance tied to the forcing scale, so their error
    # control is relative whatever alpha_c is; the carried flow keeps tol
    ts = np.linspace(traj.acc_start, traj.acc_end, 64)
    fscale = float(np.max(np.linalg.norm(ld_coordinate_force(traj, ts, alpha_c), axis=1)))
    scale = max(fscale * traj.acc_duration * max(-traj.t_min, 1.0), 1e-290)

    y0 = np.concatenate([*traj.state(traj.t_min), np.zeros(6)])
    atol = np.repeat([traj.tol, traj.tol * scale], 6)
    dense = _DenseSolution(_linear_rhs(traj, alpha_c), traj.t_min, y0, traj.t_min, 0.0,
                           "perturbation", rtol=traj.tol, atol=atol,
                           joins=(traj.acc_start, *traj.breakpoints, traj.acc_end))
    return Perturbation(traj, dense)

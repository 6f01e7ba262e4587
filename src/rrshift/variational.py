"""Linearized (variational) flow around the unperturbed trajectory.

The first-order response to a disturbance obeys

    d/dt dx^i =  H_{x^j P^i} dx^j + H_{P^j P^i} dP^j,
    d/dt dP^i = -H_{x^i x^j} dx^j - H_{x^i P^j} dP^j + f^i(t),

with the Hessian of H = sqrt((P-V)^2 + m^2) + V^0 evaluated on the
unperturbed flow and f an optional forcing (zero for Jacobi fields, the
radiation-reaction force for the retarded perturbation).

A unit-kick Jacobi field with kick time s and direction j carries the data
dx(s) = 0, dP^i(s) = delta^{ij}; its position block evaluated at fixed t is
the momentum-to-position response matrix (dx^i/dp^j)_t used by the shift
quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import Trajectory, _flow_sample
from .lorentz_dirac import _coordinate_force, ld_coordinate_force
from .potentials import axis_index

__all__ = [
    "HessianSample",
    "JacobiField",
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


def _hessian_blocks(traj: Trajectory, kin, V1, V2):
    """h_xx, h_xp and h_pp, each (N, 3, 3), from one `_flow_sample`."""
    v, sigma = kin.v, kin.sigma
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
    h_xx, h_xp, h_pp = _hessian_blocks(traj, *_flow_sample(traj, float(t)))
    return HessianSample(t=float(t), h_xx=h_xx[0], h_xp=h_xp[0], h_pp=h_pp[0])


def _linear_rhs(traj):
    """RHS of the 18-dim stacked system: three kicks solved at once."""

    def rhs(t, y):
        X = y[:9].reshape(3, 3)
        K = y[9:].reshape(3, 3)
        h = hamiltonian_hessian(traj, t)
        dX = h.h_xp.T @ X + h.h_pp @ K
        dK = -h.h_xx @ X - h.h_xp @ K
        return np.concatenate([dX.ravel(), dK.ravel()])

    return rhs


class JacobiField:
    """Unit-kick solution of the homogeneous variational system."""

    def __init__(self, traj, s, j, sols):
        self.traj = traj
        self.kick_time = float(s)
        self.direction = int(j)
        self._sols = sols  # list of (t_lo, t_hi, dense) covering [t_min, 0]

    def _eval(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.traj.t_min - 1e-12, 1e-12
        if np.any(t_arr < lo) or np.any(t_arr > hi):
            raise ValueError(f"t outside trajectory domain [{self.traj.t_min}, 0]")
        out = np.empty((t_arr.size, 18))
        for (a, b, sol) in self._sols:
            mask = (t_arr >= a - 1e-12) & (t_arr <= b + 1e-12)
            if np.any(mask):
                out[mask] = sol(np.clip(t_arr[mask], a, b)).T
        return out

    def dx(self, t):
        """Position response dx_(j)(t; s), shape (3,) or (N, 3)."""
        y = self._eval(t)
        res = y[:, :9].reshape(-1, 3, 3)[:, :, self.direction]
        return res[0] if np.asarray(t).ndim == 0 else res

    def dp(self, t):
        """Momentum response dP_(j)(t; s)."""
        y = self._eval(t)
        res = y[:, 9:].reshape(-1, 3, 3)[:, :, self.direction]
        return res[0] if np.asarray(t).ndim == 0 else res


def jacobi_basis(traj: Trajectory, s: float, tol: float | None = None) -> list[JacobiField]:
    """All three unit-kick fields anchored at kick time s, solved together."""
    s = float(s)
    if not (traj.t_min - 1e-12 <= s <= 1e-12):
        raise ValueError(f"kick time {s} outside [{traj.t_min}, 0]")
    tol = traj.tol if tol is None else float(tol)
    rhs = _linear_rhs(traj)
    y0 = np.concatenate([np.zeros(9), np.eye(3).ravel()])

    sols = []
    if s > traj.t_min:
        res = solve_ivp(rhs, (s, traj.t_min), y0, method="DOP853",
                        dense_output=True, rtol=tol, atol=tol)
        if not res.success:
            raise RuntimeError(f"variational integration failed: {res.message}")
        sols.append((traj.t_min, s, res.sol))
    if s < 0.0:
        res = solve_ivp(rhs, (s, 0.0), y0, method="DOP853",
                        dense_output=True, rtol=tol, atol=tol)
        if not res.success:
            raise RuntimeError(f"variational integration failed: {res.message}")
        sols.append((s, 0.0, res.sol))
    if not sols:  # degenerate domain
        raise ValueError("empty trajectory domain")
    return [JacobiField(traj, s, j, sols) for j in range(3)]


def symplectic_product(f1: JacobiField, f2: JacobiField, t) -> np.ndarray:
    """dx1.dP2 - dx2.dP1, conserved along t for any two fields of one flow."""
    if f1.traj is not f2.traj:
        raise ValueError("fields belong to different trajectories")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.einsum("ij,ij->i", np.atleast_2d(f1.dx(t_arr)), np.atleast_2d(f2.dp(t_arr)))
    b = np.einsum("ij,ij->i", np.atleast_2d(f2.dx(t_arr)), np.atleast_2d(f1.dp(t_arr)))
    res = a - b
    return res[0] if np.asarray(t).ndim == 0 else res


class Perturbation:
    """Retarded solution of the forced variational system."""

    def __init__(self, traj, alpha_c, sol):
        self.traj = traj
        self.alpha_c = float(alpha_c)
        self._sol = sol

    def _eval(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.traj.t_min - 1e-12, 1e-12
        if np.any(t_arr < lo) or np.any(t_arr > hi):
            raise ValueError(f"t outside trajectory domain [{self.traj.t_min}, 0]")
        return self._sol(np.clip(t_arr, self.traj.t_min, 0.0)).T

    def delta_x(self, t):
        y = self._eval(t)
        return y[0, :3] if np.asarray(t).ndim == 0 else y[:, :3]

    def delta_p(self, t):
        y = self._eval(t)
        return y[0, 3:] if np.asarray(t).ndim == 0 else y[:, 3:]

    @property
    def final_shift(self) -> np.ndarray:
        return self.delta_x(0.0)


def retarded_perturbation(traj: Trajectory, alpha_c: float) -> Perturbation:
    """Integrate the radiation-reaction-forced system from rest at t_min.

    Data dx = dP = 0 at t_min (retarded boundary condition: nothing before
    the force turns on); the value at t = 0 is the direct-route shift.
    """

    def rhs(t, y):
        dx, dP = y[:3], y[3:]
        kin, V1, V2 = _flow_sample(traj, t)
        h_xx, h_xp, h_pp = (h[0] for h in _hessian_blocks(traj, kin, V1, V2))
        f = _coordinate_force(kin, alpha_c)[0]
        ddx = h_xp.T @ dx + h_pp @ dP
        ddP = -h_xx @ dx - h_xp @ dP + f
        return np.concatenate([ddx, ddP])

    # absolute tolerance tied to the forcing scale so the error control is
    # effectively relative to the solution whatever alpha_c is
    ts = np.linspace(traj.acc_start, traj.acc_end, 64)
    fscale = float(np.max(np.linalg.norm(ld_coordinate_force(traj, ts, alpha_c), axis=1)))
    scale = max(fscale * traj.acc_duration * max(-traj.t_min, 1.0), 1e-290)

    res = solve_ivp(
        rhs, (traj.t_min, 0.0), np.zeros(6), method="DOP853",
        dense_output=True, rtol=traj.tol, atol=traj.tol * scale,
    )
    if not res.success:
        raise RuntimeError(f"perturbation integration failed: {res.message}")
    return Perturbation(traj, alpha_c, res.sol)

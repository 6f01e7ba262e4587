"""Unperturbed relativistic motion through a one-coordinate potential.

Hamiltonian flow of H = sqrt((P - V(s))^2 + m^2) + V^0(s) with s either
coordinate time or one spatial coordinate.  The trajectory is anchored at
the origin with prescribed final canonical momentum,

    x(0) = 0,   P(0) = p_final,

and integrated backward to a time t_min at which the particle sits strictly
in the constant-potential past region (margin of at least 10% of the
acceleration duration).  Velocity, acceleration, and jerk come from closed
chain-rule expressions through the potential derivatives — no numerical
differencing anywhere on this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .potentials import (PotentialProfile, _derivatives, axis_index, eval_derivative,
                         validate_profile)

__all__ = [
    "Trajectory",
    "Kinematics",
    "ReflectedTrajectoryError",
    "integrate_trajectory",
    "kinematics",
]


class ReflectedTrajectoryError(ValueError):
    """The particle fails to traverse the region with dx^a/dt > 0."""


@dataclass(frozen=True)
class Kinematics:
    """Pointwise state of the unperturbed flow (arrays broadcast over t)."""

    t: np.ndarray
    x: np.ndarray
    P: np.ndarray
    w: np.ndarray       # mechanical momentum P - V
    sigma: np.ndarray   # local energy sqrt(w^2 + m^2) = m dt/dtau
    v: np.ndarray
    a: np.ndarray
    adot: np.ndarray
    gamma: np.ndarray


class _DenseSolution:
    """Dense DOP853 solution of y' = rhs(t, y) on [lo, hi] with y(anchor) = y0.

    Solves run from the anchor out to each end that lies beyond it, with
    `options` (tolerances, max_step, events) passed to `solve_ivp`; a failed
    solve raises.  Each of the interior times `joins` met on the way (where
    the RHS is less smooth) ends one solve, and the next starts from its last
    state, so no step straddles a join.  A call checks t against the domain
    to 1e-12, clips it into the domain and then into each segment (a later
    segment wins at a join) and returns shape (N, len(y0)), or (len(y0),)
    for a scalar t.  `ts` holds the step points of every segment, joins
    included, `event_times` the times of the first event.
    """

    def __init__(self, rhs, anchor, y0, lo, hi, what, joins=(), **options):
        self.lo, self.hi, self.what = lo, hi, what
        self._y0 = y0
        self.segments, self.event_times = [], []
        for end in [e for e, beyond in ((lo, lo < anchor), (hi, hi > anchor)) if beyond]:
            inner = sorted((j for j in joins if min(anchor, end) < j < max(anchor, end)),
                           reverse=end < anchor)
            start, y = anchor, y0
            for stop in [*inner, end]:
                res = solve_ivp(rhs, (start, stop), y, method="DOP853", dense_output=True,
                                **options)
                if not res.success:
                    raise RuntimeError(f"{what} integration failed: {res.message}")
                self.segments.append((min(start, stop), max(start, stop), res.sol))
                if res.t_events:
                    self.event_times.extend(res.t_events[0])
                start, y = stop, res.y[:, -1]
        if not self.segments:
            raise ValueError(f"empty {what} domain")
        self.ts = np.concatenate([sol.ts for _, _, sol in self.segments])

    def __call__(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < self.lo - 1e-12) or np.any(t_arr > self.hi + 1e-12):
            raise ValueError(f"t outside {self.what} domain [{self.lo}, {self.hi}]")
        t_arr = np.clip(t_arr, self.lo, self.hi)
        out = np.empty((t_arr.size, self._y0.size), dtype=self._y0.dtype)
        for a, b, sol in self.segments:
            mask = (t_arr >= a - 1e-12) & (t_arr <= b + 1e-12)
            if np.any(mask):
                out[mask] = sol(np.clip(t_arr[mask], a, b)).T
        return out[0] if np.ndim(t) == 0 else out


class Trajectory:
    """Dense backward-anchored solution plus exact coasting asymptotes."""

    def __init__(self, profile, p_final, mass, tol, dense, acc_start, acc_end, breakpoints):
        self.profile = profile
        self.p_final = np.asarray(p_final, dtype=float)
        self.mass = float(mass)
        self.tol = float(tol)
        self._dense = dense
        self.t_min = float(dense.lo)
        self.acc_start = float(acc_start)   # earliest accelerated time
        self.acc_end = float(acc_end)       # latest accelerated time
        self.breakpoints = tuple(breakpoints)  # interior C^3 joins, in t
        x_in, _ = self.state(self.t_min)
        self._x_in = x_in
        self._v_in = kinematics(self, self.t_min).v
        self._v_out = kinematics(self, 0.0).v

    # -- state access ---------------------------------------------------

    @property
    def ts(self) -> np.ndarray:
        """Step points of the integrator, where the dense solution has kinks."""
        return self._dense.ts

    def state(self, t):
        """(x, P) on the integrated domain [t_min, 0]."""
        y = self._dense(t)
        return y[..., :3], y[..., 3:]

    def position(self, t):
        """x(t) for any t; outside [t_min, 0] the exact coasting line is used
        (valid because the potential is constant there)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        out = np.empty(t_arr.shape + (3,))
        inside = (t_arr >= self.t_min) & (t_arr <= 0.0)
        if np.any(inside):
            out[inside] = self.state(t_arr[inside])[0]
        before = t_arr < self.t_min
        if np.any(before):
            out[before] = self._x_in + np.outer(t_arr[before] - self.t_min, self._v_in)
        after = t_arr > 0.0
        if np.any(after):
            out[after] = np.outer(t_arr[after], self._v_out)
        return out[0] if scalar else out

    def velocity(self, t):
        """dx/dt for any t (constant outside the integrated domain)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        out = np.empty(t_arr.shape + (3,))
        inside = (t_arr >= self.t_min) & (t_arr <= 0.0)
        if np.any(inside):
            out[inside] = kinematics(self, t_arr[inside]).v
        out[t_arr < self.t_min] = self._v_in
        out[t_arr > 0.0] = self._v_out
        return out[0] if scalar else out

    def xi(self, n, t):
        """Retarded phase coordinate xi = t - n.x(t) for unit direction n."""
        t_arr = np.asarray(t, dtype=float)
        return t_arr - self.position(t_arr) @ np.asarray(n, dtype=float)

    @property
    def acc_duration(self) -> float:
        return self.acc_end - self.acc_start


def _rhs_factory(profile, mass, ai):
    e_a = None if ai is None else np.eye(3)[ai]
    orders = (0,) if ai is None else (0, 1)

    def rhs(t, y):
        x, P = y[:3], y[3:]
        s = t if ai is None else x[ai]
        derivs = _derivatives(profile, s, orders)
        w = P - derivs[0][0, 1:]
        sigma = np.sqrt(w @ w + mass * mass)
        v = w / sigma
        if ai is None:
            dP = np.zeros(3)
        else:
            dV = derivs[1][0]
            dP = e_a * (v @ dV[1:] - dV[0])
        return np.concatenate([v, dP])

    return rhs


def integrate_trajectory(
    profile: PotentialProfile,
    p_final,
    mass: float,
    tol: float = 1e-10,
    t_min: float | None = None,
) -> Trajectory:
    """Build the unperturbed trajectory anchored at x(0)=0, P(0)=p_final.

    tol is applied as both rtol and atol of the adaptive integrator.
    An explicit t_min (used to share a common domain across a family of
    re-anchored trajectories) must lie at or before the automatic choice.
    """
    report = validate_profile(profile)
    if not report.ok:
        raise ValueError("invalid profile: " + "; ".join(report.failures))
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    p_final = np.asarray(p_final, dtype=float)
    ai = axis_index(profile)

    if ai is not None and p_final[ai] <= 0.0:
        raise ReflectedTrajectoryError(
            "p_final component along the profile axis must be positive for traversal"
        )

    y0 = np.concatenate([np.zeros(3), p_final])
    rhs = _rhs_factory(profile, mass, ai)
    max_step = 0.5 * profile.width

    if ai is None:
        t_start, t_end = -profile.x1, -profile.x2
    else:
        t_start, t_end = _locate_crossings(profile, mass, rhs, y0, ai, tol, max_step)

    duration = t_end - t_start
    auto_t_min = t_start - 0.1 * duration
    if t_min is None:
        t_min = auto_t_min
    elif t_min > auto_t_min:
        raise ValueError(f"explicit t_min={t_min} leaves less than the 10% past margin")

    events = None if ai is None else [_reflection_event(profile, ai)]
    dense = _DenseSolution(rhs, 0.0, y0, t_min, 0.0, "trajectory",
                           rtol=tol, atol=tol, max_step=max_step, events=events)
    if dense.event_times:
        raise ReflectedTrajectoryError(
            f"traversal fails: dx^{profile.axis}/dt reaches zero at t={dense.event_times[0]:.6g}"
        )

    breakpoints = _interior_breakpoints(profile, dense, ai)
    return Trajectory(profile, p_final, mass, tol, dense, t_start, t_end, breakpoints)


def _reflection_event(profile, ai):
    """Terminal event: the mechanical momentum along the profile axis
    reaches zero, so the particle turns back."""

    def reflect(t, y):
        V = eval_derivative(profile, y[ai], 0)
        return (y[3:] - V[1:])[ai]

    reflect.terminal = True
    return reflect


def _locate_crossings(profile, mass, rhs, y0, ai, tol, max_step):
    """Backward event search for the times at which x^a crosses -x2, -x1."""

    def cross_hi(t, y):
        return y[ai] + profile.x2

    def cross_lo(t, y):
        return y[ai] + profile.x1

    cross_lo.terminal = True

    p_final = y0[3:]
    v0 = p_final[ai] / np.sqrt(p_final @ p_final + mass * mass)
    span = 4.0 * (profile.x1 + 1.0) / v0
    for _ in range(8):
        res = solve_ivp(
            rhs, (0.0, -span), y0, method="DOP853",
            rtol=tol, atol=tol, max_step=max_step,
            events=[cross_hi, cross_lo, _reflection_event(profile, ai)],
        )
        if not res.success:
            raise RuntimeError(f"trajectory probe failed: {res.message}")
        if res.t_events[2].size:
            raise ReflectedTrajectoryError(
                f"traversal fails: dx^{profile.axis}/dt reaches zero at t={res.t_events[2][0]:.6g}"
            )
        if res.t_events[0].size and res.t_events[1].size:
            return float(res.t_events[1][0]), float(res.t_events[0][0])
        span *= 2.0
    raise ReflectedTrajectoryError("particle never leaves the transition region")


_SHAPE_INTERIOR_JOINS = {
    "smoothstep7": (),
    "raised_cosine": (),
    "bump": (0.5,),
    "double_bump": (0.125, 0.25, 0.75, 0.875),
}


def _interior_breakpoints(profile, dense, ai):
    joins_u = _SHAPE_INTERIOR_JOINS.get(profile.shape, ())
    s_vals = [-profile.x1 + u * profile.width for u in joins_u]
    out = []
    for s in s_vals:
        if ai is None:
            out.append(s)
        else:
            f = lambda t: dense(t)[ai] - s
            if f(dense.lo) * f(dense.hi) < 0:
                out.append(brentq(f, dense.lo, dense.hi, xtol=1e-13))
    return sorted(out)


def _flow_sample(traj: Trajectory, t) -> tuple[Kinematics, np.ndarray, np.ndarray]:
    """Kinematics at the times t in array form, shape (N, ...), together
    with the potential derivatives V' and V'' at the flow points, shape
    (N, 4): `_flow_at` on the trajectory's states."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    x, P = traj.state(t_arr)
    return _flow_at(traj.profile, traj.mass, t_arr, x, P)


def _flow_at(profile, m, t_arr, x, P) -> tuple[Kinematics, np.ndarray, np.ndarray]:
    """Kinematics and V', V'' at the flow points (t, x, P), each (N, ...).
    V, V' and V'' come from one shape evaluation, so callers that also need
    the Hessian or the self-force sample the flow once per point.

    Closed forms: with w = P - V and sigma = sqrt(w^2 + m^2),

        a    = (dw/dt - v dsigma/dt) / sigma,
        dadt = (d2w/dt2 - 2 a dsigma/dt - v d2sigma/dt2) / sigma,

    where dw/dt follows from Hamilton's equations and the potential
    derivatives along the relevant coordinate.
    """
    ai = axis_index(profile)
    s = t_arr if ai is None else x[:, ai]

    V, V1, V2 = _derivatives(profile, s, (0, 1, 2))
    Vs, V1s, V2s = V[:, 1:], V1[:, 1:], V2[:, 1:]
    V1_0, V2_0 = V1[:, 0], V2[:, 0]

    w = P - Vs
    sigma = np.sqrt(np.einsum("ij,ij->i", w, w) + m * m)
    v = w / sigma[:, None]

    if ai is None:
        wdot = -V1s
        wddot = -V2s
    else:
        e_a = np.zeros(3)
        e_a[ai] = 1.0
        v_a = v[:, ai]
        vdV1 = np.einsum("ij,ij->i", v, V1s)
        Pdot = (vdV1 - V1_0)[:, None] * e_a
        wdot = Pdot - V1s * v_a[:, None]

    sigdot = np.einsum("ij,ij->i", v, wdot)
    acc = (wdot - v * sigdot[:, None]) / sigma[:, None]

    if ai is not None:
        a_a = acc[:, ai]
        vdV2 = np.einsum("ij,ij->i", v, V2s)
        adV1 = np.einsum("ij,ij->i", acc, V1s)
        v_a = v[:, ai]
        wddot = (
            (adV1 + vdV2 * v_a - V2_0 * v_a)[:, None] * e_a
            - V2s * (v_a * v_a)[:, None]
            - V1s * a_a[:, None]
        )

    sigddot = (
        np.einsum("ij,ij->i", wdot, wdot)
        + np.einsum("ij,ij->i", w, wddot)
        - sigdot * sigdot
    ) / sigma
    adot = (wddot - 2.0 * acc * sigdot[:, None] - v * sigddot[:, None]) / sigma[:, None]

    gamma = sigma / m  # the mass shell makes m*gamma and sigma one quantity

    kin = Kinematics(t=t_arr, x=x, P=P, w=w, sigma=sigma, v=v, a=acc, adot=adot, gamma=gamma)
    return kin, V1, V2


def kinematics(traj: Trajectory, t) -> Kinematics:
    """Velocity, acceleration, jerk, and energy factors along the flow
    (see `_flow_sample` for the closed forms).  A scalar t gives one point,
    an array of shape (N,) gives arrays of length N."""
    kin, _, _ = _flow_sample(traj, t)
    if np.ndim(t) == 0:
        return Kinematics(**{name: value[0] for name, value in vars(kin).items()})
    return kin

"""Unperturbed relativistic motion through a one-coordinate potential.

Hamiltonian flow of H = sqrt((P - V(s))^2 + m^2) + V^0(s) with s either
coordinate time or one spatial coordinate, anchored at x(0) = 0 with final
canonical momentum P(0) = p_final, on [t_min, 0] with t_min in the constant
past region (a margin of at least 10% of the acceleration duration).  V
depends on s alone, so P (time axis), or H and the transverse P (spatial
axis), are first integrals: they give u = (sigma, P - V) at each s in closed
form, and Y = (t, x) is the quadrature dY/ds = u / u_s, held as integrated
piecewise Chebyshev series on the forcing (Trefethen, Approximation Theory
and Approximation Practice, 2013, ch. 19) and exact coasting lines outside
it.  Velocity, acceleration, and jerk come from closed chain-rule
expressions through the potential derivatives — no numerical differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval
from scipy.integrate import solve_ivp

from .potentials import (PotentialProfile, _derivatives, _shape_joins, axis_index,
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
    """Pointwise state of the unperturbed flow (arrays broadcast over t), with
    dV^mu/ds and d^2V^mu/ds^2 at each point's coordinate s."""

    t: np.ndarray
    x: np.ndarray
    P: np.ndarray
    w: np.ndarray       # mechanical momentum P - V
    sigma: np.ndarray   # local energy sqrt(w^2 + m^2) = m dt/dtau
    v: np.ndarray
    a: np.ndarray
    adot: np.ndarray
    gamma: np.ndarray
    dV: np.ndarray
    d2V: np.ndarray


def _domain_times(t, lo, hi, what, slack=1e-12) -> np.ndarray:
    """The times t raveled to (N,) and clipped into [lo, hi]; ValueError
    unless each is finite and within slack of it (a NaN fails every
    comparison).  The one domain check of the flow's evaluators."""
    t_arr = np.ravel(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t_arr) & (t_arr >= lo - slack) & (t_arr <= hi + slack)):
        raise ValueError(f"t outside {what} domain [{lo}, {hi}]")
    return np.clip(t_arr, lo, hi)


class _DenseSolution:
    """Dense DOP853 solution of y' = rhs(t, y) on [lo, hi] with y(anchor) = y0.

    Solves run from the anchor out to each end that lies beyond it, with
    `options` (tolerances) passed to `solve_ivp`; a failed solve raises.
    Each of the interior times `joins` met on the way (where the RHS is less
    smooth) ends one solve, and the next starts from its last state, so no
    step straddles a join.  A call checks t against the domain to 1e-12,
    clips it into each segment (a later segment wins at a join) and returns
    shape (N, len(y0)), or (len(y0),) for a scalar t.  `ts` holds the step
    points of every segment, joins included.
    """

    def __init__(self, rhs, anchor, y0, lo, hi, what, joins=(), **options):
        self.lo, self.hi, self.what = lo, hi, what
        self._y0 = y0
        self.segments = []
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
                start, y = stop, res.y[:, -1]
        if not self.segments:
            raise ValueError(f"empty {what} domain")
        self.ts = np.concatenate([sol.ts for _, _, sol in self.segments])

    def __call__(self, t) -> np.ndarray:
        t_arr = _domain_times(t, self.lo, self.hi, self.what)
        out = np.empty((t_arr.size, self._y0.size), dtype=self._y0.dtype)
        for a, b, sol in self.segments:
            mask = (t_arr >= a - 1e-12) & (t_arr <= b + 1e-12)
            if np.any(mask):
                out[mask] = sol(np.clip(t_arr[mask], a, b)).T
        return out[0] if np.ndim(t) == 0 else out


_CHEB_DEGREE = 32   # Chebyshev degree of a trajectory, Jacobi-basis or mode-collocation panel
_MAX_SPLITS = 4     # halvings of the panels whose coefficient tail misses rtol
_NEWTON_STEPS = 6   # on t(s); a fixed count, so no point's s depends on its batch


def _transition_cuts(profile) -> np.ndarray:
    """Panel cuts of the forcing in s: -x1, the shape's joins, -x2."""
    joins = [-profile.x1 + u * profile.width for u in _shape_joins(profile.shape)]
    return np.array([-profile.x1, *joins, -profile.x2])


@lru_cache(maxsize=None)
def _cheb_operators(n):
    """Chebyshev-Lobatto nodes x_j = cos(j pi / n), their differentiation
    matrix D and the map from node values to coefficients, once per degree n
    and read-only (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6-8): the
    panel engine that the trajectory series, the Jacobi basis and the mode
    collocation share."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    D = np.outer(1.0 / ((-1.0) ** j * half), (-1.0) ** j * half) / (x[:, None] - x + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    ops = x, D, (2.0 / n) * np.outer(half, half) * np.cos(np.pi * np.outer(j, j) / n)
    for op in ops:
        op.flags.writeable = False
    return ops


def _panel_nodes(edges):
    """The Lobatto nodes of degree _CHEB_DEGREE on each panel between edges,
    (P, _CHEB_DEGREE + 1), from the right end (x = 1) to the left (x = -1)."""
    a, b = edges[:-1, None], edges[1:, None]
    return a + 0.5 * (b - a) * (_cheb_operators(_CHEB_DEGREE)[0] + 1.0)


def _panel_tails(coefs):
    """Each panel's relative Chebyshev tail in coefs (P, n + 1, ..., k), its
    two highest coefficients against its largest: jointly over the last axis
    (the components of one vector) and the worst over the axes between."""
    mags = np.abs(coefs)
    tails = mags[:, -2:].max(axis=(1, -1)) / mags.max(axis=(1, -1))
    return tails.reshape(len(coefs), -1).max(axis=1)


def _panel_eval(coefs, edges, t, panel):
    """Sums of the series coefs[panel] (P, n + 1, k) at the points t (N,) of
    the panels between edges, (N, k), by Clenshaw's recurrence: elementwise,
    so batch-independent."""
    z = (2.0 * t - edges[panel] - edges[panel + 1]) / (edges[panel + 1] - edges[panel])
    out = np.empty((t.size, coefs.shape[2]), dtype=coefs.dtype)
    for i in np.unique(panel):
        rows = panel == i
        out[rows] = chebval(z[rows, None], coefs[i][:, None, :], tensor=False)
    return out


def _linear_panels(G, y, anchor):
    """Collocated solutions of the linear system dy/dx = G(x) y on P panels,
    with x in [-1, 1] each panel's local coordinate and G (P, ..., n + 1, d,
    d) the system matrix at its Lobatto nodes times its half-length.  One
    batched solve of L = I (x) D - G gives, per panel, the fundamental
    solution that is the identity at the panel's end nearest edge `anchor`;
    the panels are then chained outward from the state y (..., d, r) at that
    edge, forward to its right and backward to its left.  Returns the node
    values (P, ..., d, n + 1, r) and the states at the first and last edge."""
    n_pan, *batch, k, d, _ = G.shape
    D = _cheb_operators(k - 1)[1]
    L = np.zeros((n_pan, *batch, d, k, d, k), dtype=G.dtype)
    L[..., range(d), :, range(d), :] = D
    L[..., :, range(k), :, range(k)] -= np.moveaxis(G, -3, 0)
    L = L.reshape(n_pan, *batch, d * k, d * k)
    pinned = np.zeros((n_pan, d * k, d))
    for pin, side in ((0, slice(None, anchor)), (k - 1, slice(anchor, None))):
        rows = pin + k * np.arange(d)  # x = 1 backward, x = -1 forward
        L[side, ..., rows, :] = 0.0
        L[side, ..., rows, rows] = 1.0
        pinned[side, rows, range(d)] = 1.0
    fund = np.linalg.solve(L, np.broadcast_to(pinned.reshape(n_pan, *[1] * len(batch), d * k, d),
                                              L.shape[:-1] + (d,)))
    vals = np.empty(L.shape[:-1] + y.shape[-1:], dtype=np.result_type(fund, y))
    y_lo = y_hi = y
    for i in reversed(range(anchor)):
        vals[i] = np.einsum("...rc,...cq->...rq", fund[i], y_lo)
        y_lo = vals[i, ..., k - 1::k, :].copy()
    for i in range(anchor, n_pan):
        vals[i] = np.einsum("...rc,...cq->...rq", fund[i], y_hi)
        y_hi = vals[i, ..., ::k, :].copy()
    return vals.reshape(n_pan, *batch, d, k, -1), y_lo, y_hi


def _refine_panels(fit, edges, rtol, what):
    """(edges, fit(edges)), where fit(edges)[0] holds each panel's relative
    Chebyshev tail: panels whose tail misses rtol are halved up to
    _MAX_SPLITS times, then a RuntimeError names the worst one."""
    for splits in range(_MAX_SPLITS + 1):
        out = fit(edges)
        tails = out[0]
        if np.all(tails <= rtol):
            return edges, out
        if splits < _MAX_SPLITS:  # a NaN tail counts as missed
            edges = np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:])[~(tails <= rtol)]))
    i = int(np.argmax(tails))
    raise RuntimeError(f"{what} failed: panel {i} [{edges[i]:.6g}, {edges[i + 1]:.6g}] keeps a "
                       f"relative Chebyshev tail {tails[i]:.3e} above rtol {rtol:.1e} "
                       f"after {_MAX_SPLITS} halvings")


def _first_integrals(profile, p, m, s):
    """Mechanical four-momentum u = (sigma, P - V), (..., N, 4), and canonical
    momentum P, (..., N, 3), at the coordinates s (N,) of the flows with P = p
    at s = 0, where V = 0, for momenta p (..., 3), bit for bit one call each.
    Time axis: P = p and sigma = sqrt((p - V)^2 + m^2).  Spatial axis a: H =
    sqrt(p^2 + m^2) and P_perp = p_perp hold, so sigma = H - V^0 and u_a
    follows from the mass shell; ReflectedTrajectoryError where u_a^2 <= 0."""
    ai = axis_index(profile)
    V = _derivatives(profile, s, (0,))[0]
    p = np.asarray(p, dtype=float)[..., None, :]
    P = np.repeat(p, len(V), axis=-2)
    w = P - V[:, 1:]
    if ai is None:
        sigma = np.sqrt(np.einsum("...ij,...ij->...i", w, w) + m * m)
    else:
        sigma = np.sqrt((p @ np.swapaxes(p, -1, -2))[..., 0] + m * m) - V[:, 0]
        w[..., ai] = 0.0
        wa2 = sigma * sigma - m * m - np.einsum("...ij,...ij->...i", w, w)
        if np.any(wa2 <= 0.0):
            at = s[np.nonzero(wa2 <= 0.0)[-1][0]]  # in the first momentum that reflects
            raise ReflectedTrajectoryError(f"traversal fails: dx^{profile.axis}/dt reaches zero "
                                           f"at {profile.axis}={at:.6g}")
        w[..., ai] = np.sqrt(wa2)
        P[..., ai] = V[:, 1 + ai] + w[..., ai]
    return np.concatenate([sigma[..., None], w], axis=-1), P


def _fit_panels(profile, p, m, k, edges, y_end):
    """Each panel's relative coefficient tail, the Chebyshev coefficients of
    the interpolants of dY/ds = u / u_k at the panel nodes between edges and
    of their integrals Y = (t, x), chained backward from y_end at edges[-1]
    (each (P, ., 4), in local coordinates), Y at edges."""
    s = _panel_nodes(edges)
    u = _first_integrals(profile, p, m, s.ravel())[0].reshape(*s.shape, 4)
    slopes = _cheb_operators(s.shape[1] - 1)[2] @ (u / u[..., k:k + 1])
    coefs = chebint(slopes * (0.5 * (edges[1:] - edges[:-1]))[:, None, None], lbnd=1, axis=1)
    y_edges = [y_end]
    for i in reversed(range(len(coefs))):  # each integral vanishes at its panel's right end
        coefs[i, 0] += y_edges[0]
        y_edges.insert(0, chebval(-1.0, coefs[i]))
    return _panel_tails(slopes), coefs, slopes, np.array(y_edges)


class Trajectory:
    """The flow anchored at x(0) = 0, P(0) = p_final, with Y = (t, x) a
    function of the potential's coordinate s: integrated Chebyshev series on
    the panels of the forcing [-x1, -x2], exact coasting lines outside it.
    `ts` are the panel edges in t (exactly the s values on the time axis),
    `breakpoints` those at the shape's joins.  tol bounds every panel's
    relative coefficient tail and is the variational solves' tolerance."""

    def __init__(self, profile, p_final, mass, tol, t_min=None):
        self.profile, self.mass, self.tol = profile, float(mass), float(tol)
        self.p_final = np.asarray(p_final, dtype=float)
        ai = self._ai = axis_index(profile)
        cuts = _transition_cuts(profile)
        u_in, u_out = _first_integrals(profile, self.p_final, mass, cuts)[0][[0, -1]]
        k = 0 if ai is None else 1 + ai
        y_end = cuts[-1] * (u_out / u_out[k])  # on the coasting line through the origin
        self._edges, (_, self._coefs, self._slopes, y_edges) = _refine_panels(
            lambda e: _fit_panels(profile, self.p_final, mass, k, e, y_end), cuts, tol,
            "trajectory series")
        self.ts = self._edges if ai is None else y_edges[:, 0]
        self.acc_start, self.acc_end = float(self.ts[0]), float(self.ts[-1])
        self.breakpoints = tuple(self.ts[np.isin(self._edges, cuts[1:-1])])  # C^3 joins in t
        self._v_in, self._v_out = u_in[1:] / u_in[0], u_out[1:] / u_out[0]
        self._x_in = y_edges[0, 1:]
        if ai is not None:
            self._x_in[ai] = cuts[0]
        auto_t_min = self.acc_start - 0.1 * self.acc_duration
        if t_min is not None and t_min > auto_t_min:
            raise ValueError(f"explicit t_min={t_min} leaves less than the 10% past margin")
        self.t_min = float(auto_t_min if t_min is None else t_min)

    def _locate(self, t):
        """s and x at the times t, (N,) and (N, 3): the coasting lines before
        acc_start and after acc_end; between them the series, reached on a
        spatial axis by _NEWTON_STEPS Newton steps on t(s) in each time's panel.
        Any finite t is on the domain; ValueError for a NaN or an infinity."""
        t = _domain_times(t, -np.inf, np.inf, "trajectory")
        early, late = t <= self.acc_start, t >= self.acc_end
        x = np.where(early[:, None], self._x_in + np.outer(t - self.acc_start, self._v_in),
                     np.outer(t, self._v_out))
        inner = ~early & ~late
        t_in = t[inner]
        panel = np.searchsorted(self.ts, t_in) - 1
        a, b = self._edges[panel], self._edges[panel + 1]
        s = t_in if self._ai is None else np.interp(t_in, self.ts, self._edges)
        for _ in range(0 if self._ai is None else _NEWTON_STEPS):
            dt = _panel_eval(self._coefs[..., :1], self._edges, s, panel) - t_in[:, None]
            ds = dt / _panel_eval(self._slopes[..., :1], self._edges, s, panel)
            s = np.clip(s - ds[:, 0], a, b)
        x[inner] = _panel_eval(self._coefs, self._edges, s, panel)[:, 1:]
        if self._ai is None:
            return t, x
        x[inner, self._ai] = s
        return x[:, self._ai], x

    def state(self, t):
        """(x, P) on the domain [t_min, 0]."""
        s, x = self._locate(_domain_times(t, self.t_min, 0.0, "trajectory"))
        P = _first_integrals(self.profile, self.p_final, self.mass, s)[1]
        return (x[0], P[0]) if np.ndim(t) == 0 else (x, P)

    def position(self, t):
        """x(t) for any finite t."""
        x = self._locate(t)[1]
        return x[0] if np.ndim(t) == 0 else x

    def velocity(self, t):
        """dx/dt = (P - V) / sigma for any finite t; outside the forcing, the
        stored coasting velocities, with V sampled only at the inner times.
        On the time axis the coordinate is t itself, so no series is summed."""
        t_arr = _domain_times(t, -np.inf, np.inf, "trajectory")
        early, late = t_arr <= self.acc_start, t_arr >= self.acc_end
        v = np.where(early[:, None], self._v_in, self._v_out)
        inner = ~early & ~late
        s = t_arr[inner] if self._ai is None else self._locate(t_arr[inner])[0]
        u = _first_integrals(self.profile, self.p_final, self.mass, s)[0]
        v[inner] = u[:, 1:] / u[:, :1]
        return v[0] if np.ndim(t) == 0 else v

    def xi(self, n, t):
        """Retarded phase coordinate xi = t - n.x(t) for unit direction n."""
        t_arr = np.asarray(t, dtype=float)
        return t_arr - self.position(t_arr) @ np.asarray(n, dtype=float)

    @property
    def acc_duration(self) -> float:
        return self.acc_end - self.acc_start


def integrate_trajectory(
    profile: PotentialProfile,
    p_final,
    mass: float,
    tol: float = 1e-10,
    t_min: float | None = None,
) -> Trajectory:
    """Build the unperturbed trajectory anchored at x(0)=0, P(0)=p_final.

    tol bounds the relative coefficient tail of every series panel; a panel
    that misses it is halved, and RuntimeError follows four vain halvings.
    An explicit t_min (to put trajectories with different momenta on one
    common domain) must lie at or before the automatic choice.  A mass, tol
    or p_final that is not finite (and positive) raises ValueError up front.
    """
    report = validate_profile(profile)
    if not report.ok:
        raise ValueError("invalid profile: " + "; ".join(report.failures))
    if not (np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and positive, got {mass}")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    p_final = np.asarray(p_final, dtype=float)
    if p_final.shape != (3,) or not np.all(np.isfinite(p_final)):
        raise ValueError(f"p_final must be a finite three-vector, got {p_final}")
    ai = axis_index(profile)
    if ai is not None and p_final[ai] <= 0.0:
        raise ReflectedTrajectoryError(
            "p_final component along the profile axis must be positive for traversal"
        )
    return Trajectory(profile, p_final, mass, tol, t_min)


def _flow_at(profile, m, t_arr, x, P) -> Kinematics:
    """Kinematics at the flow points (t, x, P), each (N, ...), with V, V'
    and V'' from one shape evaluation, so callers that also need the Hessian
    or the self-force sample the flow once per point: a trajectory's states
    (`kinematics`) or those the perturbation's right-hand side carries.

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
        e_a = np.eye(3)[ai]
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

    return Kinematics(t=t_arr, x=x, P=P, w=w, sigma=sigma, v=v, a=acc, adot=adot, gamma=gamma,
                      dV=V1, d2V=V2)


def _flow_tangent(profile, kin, dx, dP) -> tuple[np.ndarray, np.ndarray]:
    """Forward mode of `_flow_at`'s closed forms for v and a: dv and da, each
    (N, 3, k), along k tangents (dx, dP), each (N, 3, k), of the flow points
    of the sample kin, with its V' and V''.  With ds the axis row of dx (zero
    on the time axis): dw = dP - V' ds, dsigma = v.dw, dv = (dw - v dsigma) /
    sigma and da = (d(dw/dt) - dv dsigma/dt - v d(dsigma/dt) - a dsigma) / sigma."""
    ai = axis_index(profile)
    V1, V2 = kin.dV, kin.d2V
    v, acc, sigma = kin.v[:, :, None], kin.a[:, :, None], kin.sigma[:, None, None]
    vT, V1s, V2s = kin.v[:, None, :], V1[:, 1:, None], V2[:, 1:, None]  # row dots: vT @ q
    ds = 0.0 if ai is None else dx[:, ai:ai + 1]
    dw = dP - V1s * ds
    dsig = vT @ dw
    dv = (dw - v * dsig) / sigma
    if ai is None:  # dw/dt = -V'(t) does not move
        wdot, dwdot = -V1s, np.zeros_like(dv)
    else:
        e_a, v_a, dv_a = np.eye(3)[:, ai:ai + 1], v[:, ai:ai + 1], dv[:, ai:ai + 1]
        wdot = (vT @ V1s - V1[:, :1, None]) * e_a - V1s * v_a
        dwdot = ((V1[:, None, 1:] @ dv + (vT @ V2s - V2[:, :1, None]) * ds) * e_a
                 - V2s * v_a * ds - V1s * dv_a)
    sigdot, dsigdot = vT @ wdot, np.swapaxes(wdot, 1, 2) @ dv + vT @ dwdot
    return dv, (dwdot - dv * sigdot - v * dsigdot - acc * dsig) / sigma


def kinematics(traj: Trajectory, t) -> Kinematics:
    """The one flow sampler along a trajectory: state, velocity, acceleration,
    jerk, energy factors and V', V'' (see `_flow_at` for the closed forms).
    A scalar t gives one point, an array of shape (N,) gives arrays of N rows."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    kin = _flow_at(traj.profile, traj.mass, t_arr, *traj.state(t_arr))
    if np.ndim(t) == 0:
        return Kinematics(**{name: value[0] for name, value in vars(kin).items()})
    return kin

"""Finite-hbar mode functions, emission amplitudes, and spectral quantities.

For a time-dependent potential the one-particle sector reduces to the
oscillator equation

    hbar^2 d^2phi/dt^2 + [ (p - V(t))^2 + m^2 ] phi = 0,

normalized to the positive-frequency plane wave at t = 0 where V = 0.  The
one-photon emission amplitude built from a mode pair (P = p - hbar k n)
converges, as hbar -> 0, to the classical amplitude: the Fourier transform
of the four-velocity in the retarded coordinate xi = t - n.x(t), gated by a
smooth compact window chi(xi),

    A^mu(k, n) = -e int dxi (dx^mu/dxi) chi(xi) e^{i k xi}.

Integrating by parts splits A exactly into a radiative part supported on
the acceleration interval and a taper part carried by chi' alone (the
trajectory coasts there whenever the plateau covers the acceleration
image); the spectral routines below lean on that split both for speed and
for an exact zero-acceleration baseline.  One kernel, `_amplitudes`, yields
both parts per direction and, given the Jacobi basis, their exact
derivative with respect to the final momentum along one trajectory.  The k
integrals climb the same octaves, and within an octave each trajectory is
sampled once for all directions of the sphere grid.  On the equal-width k
panels e^{i(c_p + h x_j) xi} = E_p(xi) G_j(xi), so each transform is one
matmul.  From the kernel: the radiated-energy spectrum, the assembled side
of the reduced emission probability, whose double-xi side is an independent
evaluation (a Parseval pair), and the shift route that differentiates the
amplitude.  Mode functions need no ODE stepping: V is constant outside the
forcing, where they are plane waves in closed form, and inside it a stack
of momenta at one hbar is collocated on Chebyshev panels in one batched
linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (Trajectory, _cheb_operators, _domain_times, _first_integrals,
                       _flow_tangent, _linear_panels, _panel_eval, _panel_nodes, _panel_tails,
                       _refine_panels, _transition_cuts, kinematics)
from .potentials import PotentialProfile, _smoothstep7
from .shift import _gauss_panels, _support_integral, sphere_quadrature
from .variational import _zero_kick_basis

__all__ = [
    "CutoffWindow",
    "ModeFunction",
    "EnergyReport",
    "ProbabilityReport",
    "acceleration_xi_bounds",
    "default_window",
    "window_time_range",
    "solve_mode_function",
    "amplitude_classical",
    "amplitude_quantum",
    "taper_amplitude",
    "radiated_energy",
    "larmor_radiated_energy",
    "emission_probability_reduced",
    "shift_from_amplitudes",
]

_8PI3 = 2.0 * (2.0 * np.pi) ** 3  # the 2(2pi)^3 of the k-space measure
_METRIC = np.array([1.0, -1.0, -1.0, -1.0])  # (+, -, -, -)


# ---------------------------------------------------------------------------
# cutoff window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffWindow:
    """Smooth emission gate chi(xi): exactly 1 on [xi_on, xi_off], C^3
    tapers of the given width on both sides, exactly 0 beyond them."""

    xi_on: float
    xi_off: float
    width: float

    def __post_init__(self):
        if not (self.width > 0.0):
            raise ValueError("taper width must be positive")
        if not (self.xi_off > self.xi_on):
            raise ValueError("window plateau is empty")

    @property
    def support(self) -> tuple[float, float]:
        return (self.xi_on - self.width, self.xi_off + self.width)

    def require_covers(self, lo: float, hi: float, what: str = "the source interval"):
        if not (self.xi_on <= lo and hi <= self.xi_off):
            raise ValueError(
                f"window plateau [{self.xi_on:.6g}, {self.xi_off:.6g}] does not cover "
                f"{what} [{lo:.6g}, {hi:.6g}]"
            )

    def chi(self, xi):
        return self._profile(xi, 0)

    def chi_prime(self, xi):
        return self._profile(xi, 1)

    def _profile(self, xi, order: int):
        """chi (order 0) or chi' (order 1) at xi."""
        xi_arr = np.asarray(xi, dtype=float)
        scalar = xi_arr.ndim == 0
        xi_arr = np.atleast_1d(xi_arr)
        out = np.zeros(xi_arr.shape)
        if order == 0:
            out[(xi_arr >= self.xi_on) & (xi_arr <= self.xi_off)] = 1.0
        lo, hi = self.support
        up = (xi_arr > lo) & (xi_arr < self.xi_on)
        down = (xi_arr > self.xi_off) & (xi_arr < hi)
        if np.any(up):
            out[up] = _smoothstep7((xi_arr[up] - lo) / self.width)[order] / self.width**order
        if np.any(down):
            out[down] = ((-1.0) ** order * _smoothstep7((hi - xi_arr[down]) / self.width)[order]
                         / self.width**order)
        return out[0] if scalar else out


def acceleration_xi_bounds(traj: Trajectory) -> tuple[float, float]:
    """Range of xi = t - n.x(t) over the acceleration interval, over every
    direction n at once (|n.x| <= |x|).  With |v| < 1 both t - |x(t)| and
    t + |x(t)| increase with t, so the interval ends give the range."""
    ts = np.array([traj.acc_start, traj.acc_end])
    r = np.linalg.norm(traj.position(ts), axis=1)
    return float(ts[0] - r[0]), float(ts[1] + r[1])


def default_window(traj: Trajectory, pad_fraction: float = 0.5,
                   width_fraction: float = 0.5) -> CutoffWindow:
    """Plateau = direction-independent xi-image of the acceleration interval
    padded by pad_fraction x duration; taper width_fraction x duration."""
    lo, hi = acceleration_xi_bounds(traj)
    dur = traj.acc_duration
    return CutoffWindow(lo - pad_fraction * dur, hi + pad_fraction * dur,
                        width_fraction * dur)


def window_time_range(traj: Trajectory, n, window: CutoffWindow):
    """Times between which chi(xi(n, t)) can be nonzero: (t_lo, t_hi) for n of
    shape (3,), (D, 2) for a stack (D, 3).  The support ends lie beyond the
    acceleration xi-image, on the coasting lines through acc_start and acc_end,
    so each is one division; a support that ends inside the image raises."""
    dirs = np.atleast_2d(np.asarray(n, dtype=float))
    ends = np.array([traj.acc_start, traj.acc_end])
    # elementwise n.x and n.v, so a stack rounds exactly as its directions one by one
    img = ends - np.einsum("dj,ej->de", dirs, traj.position(ends))
    slope = 1.0 - np.einsum("dj,ej->de", dirs, traj.velocity(ends))
    t = ends + (np.array(window.support) - img) / slope
    if np.any(t[:, 0] > ends[0]) or np.any(t[:, 1] < ends[1]):
        raise ValueError(f"window support {window.support} does not reach past the "
                         f"acceleration xi-image [{img[:, 0].min():.6g}, {img[:, 1].max():.6g}]")
    return (float(t[0, 0]), float(t[0, 1])) if np.ndim(n) == 1 else t


def _require_plateau_covers(traj: Trajectory, n, window: CutoffWindow):
    window.require_covers(*traj.xi(n, [traj.acc_start, traj.acc_end]), "the acceleration interval")


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


# one 12-point Gauss-Legendre panel per oscillation period keeps the
# quadrature error far below 1e-10
_PANEL_ORDER = 12
_PAIR_BLOCK = 128  # rows and columns of one block of the double-xi pair kernel
# Panel counts past which an input is refused before anything is allocated:
# far above use (the full verify suite reaches 128 phase panels and 15 mode
# panels), low enough that the transforms and collocation solves they admit
# fit in memory.
_MAX_PHASE_PANELS = 1024
_MAX_MODE_PANELS = 256
_MODE_RTOL = 1e-11  # bound on each mode panel's relative Chebyshev tail


def _phase_edges(a: float, b: float, rate: float, base_panels: int = 48) -> np.ndarray:
    """Equal panel edges on [a, b], at least one panel per period of a phase
    turning at `rate` rad/unit."""
    n_panels = max(base_panels, np.ceil((b - a) * max(rate, 0.0) / (2.0 * np.pi)))
    if n_panels > _MAX_PHASE_PANELS:
        raise ValueError(f"a phase turning at {rate:.3g} rad/unit over [{a:.6g}, {b:.6g}] needs "
                         f"{n_panels:.3g} quadrature panels, above the limit of "
                         f"{_MAX_PHASE_PANELS}")
    return np.linspace(a, b, int(n_panels) + 1)


def _max_speed(traj: Trajectory) -> float:
    """Largest sampled speed; it is constant outside the acceleration interval."""
    ts = np.linspace(traj.acc_start, traj.acc_end, 129)
    return float(np.max(np.linalg.norm(traj.velocity(ts), axis=1)))


def _direction_grid(traj: Trajectory, n_polar: int, n_azimuth: int):
    """Sphere nodes and weights with the polar axis along the final velocity."""
    return sphere_quadrature(n_polar, n_azimuth, axis=traj.velocity(0.0))


def _octaves(span: float, k_cap: float = np.inf):
    """k panels (k_lo, k_hi): [0, 2pi/span], then doublings, clipped at k_cap."""
    k_lo, k_hi = 0.0, min(2.0 * np.pi / span, k_cap)
    while True:
        yield k_lo, k_hi
        if k_hi >= k_cap:
            return
        k_lo, k_hi = k_hi, min(2.0 * k_hi, k_cap)


def _windowed_nodes(traj: Trajectory, dirs, window: CutoffWindow, k_max: float):
    """Time nodes over the window support, one panel per period up to k_max,
    for each direction of dirs (D, 3): yields (xi, the gated weights
    chi(xi) w, (1, v)).  One panel rate (_max_speed) serves every direction;
    the trajectory is sampled once on the concatenated nodes, and the gate
    evaluated once on the concatenated xi.  Each direction's values equal
    those of a one-direction call bit for bit."""
    rate = k_max * (1.0 + _max_speed(traj))
    nodes = [_gauss_panels(_phase_edges(a, b, rate), _PANEL_ORDER)
             for a, b in window_time_range(traj, dirs, window)]
    ts = np.concatenate([t for t, _ in nodes])
    cuts = np.cumsum([t.size for t, _ in nodes])[:-1]
    xis = [t - np.einsum("ij,j->i", x, n)
           for n, (t, _), x in zip(dirs, nodes, np.split(traj.position(ts), cuts))]
    gates = np.split(window.chi(np.concatenate(xis)), cuts)
    for (t, w), xi, chi, v in zip(nodes, xis, gates, np.split(traj.velocity(ts), cuts)):
        yield xi, chi * w, np.column_stack([np.ones(t.size), v])


def _k_panels(k_lo: float, k_hi: float, rate: float):
    """Equal-width Gauss-Legendre k panels on [k_lo, k_hi], at least four and
    one per 2pi/rate: the nodes as (P, J) and the flat weights."""
    ks, wk = _gauss_panels(_phase_edges(k_lo, k_hi, rate, base_panels=4), _PANEL_ORDER)
    return ks.reshape(-1, _PANEL_ORDER), wk


def _cis(a) -> np.ndarray:
    """e^{i a} for real a: cos and sin written into one complex array, cheaper
    than np.exp(1j * a) and equal to it value for value (a test checks this)."""
    out = np.empty(np.shape(a), dtype=complex)
    np.cos(a, out=out.real)
    np.sin(a, out=out.imag)
    return out


def _phase_transform(ks: np.ndarray, xi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_t e^{i k xi_t} weights[t] at the nodes ks (P, J) of equal-width k
    panels with symmetric nodes, flat (p-major) of shape (P J, m) for
    weights (nt, m).  With k_pj = c_p + o_j, e^{i k xi} = E_p(xi) G_j(xi),
    so this is one matmul E @ (G * weights).  E splits in blocks of
    B = ceil(sqrt(P)) centers, c_{bB+q} = c_{bB} + (c_q - c_0), and G of the
    antisymmetric offsets is the conjugate mirror of its o_j >= 0 half: about
    2 sqrt(P) + J/2 `_cis` factors per node and P products, instead of P J."""
    n_p, n_j = ks.shape
    centers = 0.5 * (ks[:, 0] + ks[:, -1])
    block = int(np.ceil(np.sqrt(n_p)))
    heads = _cis(np.outer(centers[::block], xi))
    subs = _cis(np.outer(centers[:block] - centers[0], xi))
    e = (heads[:, None, :] * subs[None, :, :]).reshape(-1, xi.size)[:n_p]
    g = _cis(np.outer(xi, ks[0, n_j // 2:] - centers[0]))
    g = np.concatenate([np.conj(g[:, ::-1][:, :n_j // 2]), g], axis=1)  # o = 0 kept once
    gw = g[:, :, None] * weights[:, None, :]
    return (e @ gw.reshape(xi.size, -1)).reshape(-1, weights.shape[1])


def _taper_transforms(window: CutoffWindow, ks: np.ndarray):
    """T_left(k), T_right(k): Fourier transforms of chi' over each taper.
    Window-only — shared across directions and trajectories."""
    lo, hi = window.support
    rate = float(np.max(np.abs(ks)))
    out = []
    for a, b in ((lo, window.xi_on), (window.xi_off, hi)):
        xs, w = _gauss_panels(_phase_edges(a, b, rate, base_panels=24), _PANEL_ORDER)
        out.append(_phase_transform(ks, xs, (window.chi_prime(xs) * w)[:, None])[:, 0])
    return out[0], out[1]


def _amplitudes(traj: Trajectory, ks: np.ndarray, dirs, window: CutoffWindow, charge: float,
                rate: float, basis=None):
    """The by-parts split A = A_rad + A_taper of the windowed amplitude at the
    (P, J) nodes ks of equal-width k panels, per direction in dirs: yields
    (a_rad, a_tap, da), the first two (P J, 4) and da = dA/dp_final, (P J,
    4, 3) with column j for p_final^j, exactly along traj from its
    kick-time-0 Jacobi `basis`; without a basis da is (P J, 4, 0).

        A_rad^mu = (e/ik) T[R^mu],   R = [xd (0, a) + (n.a)(1, v)] / xd^2 w,
        A_taper^mu = (e/ik) [W_in^mu T_left + W_out^mu T_right],

    with xd = 1 - n.v, T the phase transform over the acceleration interval
    on time panels that resolve `rate` rad/unit, w its node weights, and
    W = (1, v)/xd the coasting four-velocity per xi, constant on each taper
    (T_left, T_right from `_taper_transforms`).  A_rad is window-independent
    and R is transverse at every node along any trajectory: one transform per
    direction carries its spatial columns and each time component is n.T of
    its spatial ones.  With X, K of the basis giving dv, da (`_flow_tangent`)
    and dxi = -n.X,

        dA_rad = (e/ik) T[dR] + e T[R dxi],   dA_taper = (e/ik) [dW_in T_left + dW_out T_right],

    and dR, R dxi are transverse too (3 + 9 + 9 transformed columns).  The
    acceleration vanishes at the interval's ends, so their motion adds
    nothing.  The trajectory is sampled once, and W with its tangents is
    formed once for all directions."""
    ts, w = _gauss_panels(_phase_edges(traj.acc_start, traj.acc_end, rate, base_panels=24),
                          _PANEL_ORDER)
    kin = kinematics(traj, np.concatenate([ts, [traj.acc_start, traj.acc_end]]))
    if basis is None:
        dv = dacc = dx = np.zeros((kin.t.size, 0, 3))
    else:
        X, K = basis(kin.t)
        dv, dacc = (d.swapaxes(1, 2) for d in _flow_tangent(traj.profile, kin, X, K))
        dx = X.swapaxes(1, 2)
    m = dv.shape[1]  # tangents; each (N, m, 3) with the spatial index last
    # W = u/xd and dW = (du + W n.du)/xd for u = (1, v) in and out, (D, 2, 1 + m, 4)
    u = np.column_stack([np.ones(2), traj.velocity([traj.acc_start, 0.0])])
    du = np.concatenate([np.zeros((2, m, 1)), dv[-2:]], axis=2)
    xd_ends = 1.0 - dirs @ u[:, 1:].T                                        # (D, 2)
    ndu = np.einsum("dj,emj->dem", dirs, du[..., 1:]) / xd_ends[..., None]  # (D, 2, m)
    W = np.concatenate([np.broadcast_to(u[:, None], (len(dirs), 2, 1, 4)),
                        du + u[:, None] * ndu[..., None]], axis=2) / xd_ends[..., None, None]
    v, a, x = kin.v[:-2], kin.a[:-2], kin.x[:-2]
    dv, dacc, dx = dv[:-2], dacc[:-2], dx[:-2]
    t_left, t_right = (t[:, None, None] for t in _taper_transforms(window, ks))
    pref = (charge / (1j * ks.ravel()))[:, None]
    for n, w_n in zip(dirs, W):
        xd, na = 1.0 - v @ n, a @ n
        R = (a * xd[:, None] + na[:, None] * v) * (w / xd**2)[:, None]
        cols = R[:, None]  # (N, 1 + 2 m, 3): R, then dR and R dxi per tangent
        if m:
            dxd, dna = -(dv @ n), dacc @ n
            dR = (dacc * xd[:, None, None] + dxd[:, :, None] * a[:, None]
                  + dna[:, :, None] * v[:, None] + na[:, None, None] * dv)
            dR = dR * (w / xd**2)[:, None, None] - 2.0 * R[:, None] * (dxd / xd[:, None])[..., None]
            cols = np.concatenate([cols, dR, R[:, None] * -(dx @ n)[..., None]], axis=1)
        tr = _phase_transform(ks, ts - x @ n, cols.reshape(ts.size, -1))
        tr = np.concatenate([(tr.reshape(-1, 3) @ n).reshape(ks.size, -1, 1),
                             tr.reshape(ks.size, -1, 3)], axis=2)
        tap = t_left * w_n[0] + t_right * w_n[1]
        da = pref[:, None] * (tr[:, 1:1 + m] + tap[:, 1:]) + charge * tr[:, 1 + m:]
        yield pref * tr[:, 0], pref * tap[:, 0], da.swapaxes(1, 2)


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------


def _check_direction(n, ndim: int = 1) -> np.ndarray:
    """n as a unit 3-vector (3,), or for ndim 2 a stack of them (S, 3)."""
    n = np.asarray(n, dtype=float)
    if n.ndim != ndim or n.shape[-1] != 3 or np.any(np.abs(np.sum(n * n, axis=-1) - 1.0) > 1e-10):
        raise ValueError("direction n must be a unit 3-vector")
    return n


def amplitude_classical(traj: Trajectory, k: float, n, window: CutoffWindow,
                        charge: float) -> np.ndarray:
    """A^mu = -e int dxi (dx^mu/dxi) chi(xi) e^{ik xi}, evaluated in t: the
    complex four-vector (4,), index 0 = time.

    The plateau must cover the acceleration xi-image for this direction;
    oscillation-aware composite quadrature keeps the relative error near
    1e-10 for k x (window span) into the thousands.
    """
    n = _check_direction(n)
    _require_plateau_covers(traj, n, window)
    [(xi, gate, u)] = _windowed_nodes(traj, n[None], window, abs(float(k)))
    return -charge * _phase_transform(np.array([[float(k)]]), xi, u * gate[:, None])[0]


def taper_amplitude(traj: Trajectory, k: float, n, window: CutoffWindow,
                    charge: float) -> np.ndarray:
    """The window's own contribution, a four-vector (4,): the
    zero-acceleration baseline generalized to a trajectory whose in/out
    velocities differ."""
    n = _check_direction(n)
    _require_plateau_covers(traj, n, window)
    # A_rad is not read, so the coarsest time panels (rate 0) serve
    [(_, a, _)] = _amplitudes(traj, np.array([[float(k)]]), n[None], window, charge, 0.0)
    return a[0]


# ---------------------------------------------------------------------------
# finite-hbar mode functions
# ---------------------------------------------------------------------------


def _collocate(profile, stack, mass, hbar, edges, y):
    """Each panel's worst relative coefficient tail, the Chebyshev
    coefficients of (phi, dphi/dt) on the panels between edges, (P, n + 1,
    2M) with the phi columns first, and (phi, hbar dphi/dt) at edges[0]:
    the panel engine's linear solve of (phi, hbar phi')' = [[0, 1],
    [-sigma^2, 0]] (phi, hbar phi') / hbar per momentum, chained backward
    from the state y (2, M) at edges[-1]."""
    t = _panel_nodes(edges)
    (n_pan, k), m = t.shape, len(stack)
    sig2 = _first_integrals(profile, stack, mass, t.ravel())[0][..., 0].reshape(m, n_pan, k) ** 2
    c = (0.5 * (edges[1:] - edges[:-1]) / hbar)[:, None, None]
    G = np.zeros((n_pan, m, k, 2, 2))
    G[..., 0, 1] = c
    G[..., 1, 0] = -c * np.swapaxes(sig2, 0, 1)
    vals, y, _ = _linear_panels(G, y.T[..., None], n_pan)  # (P, M, 2, n + 1, 1)
    vals[:, :, 1] /= hbar
    coefs = _cheb_operators(k - 1)[2] @ vals[..., 0].transpose(0, 3, 2, 1).reshape(n_pan, k, -1)
    return _panel_tails(coefs[..., None]), coefs, y[..., 0].T


class ModeFunction:
    """Solutions of hbar^2 phi'' + sigma_p(t)^2 phi = 0 for a stack of M
    momenta p (M, 3) at one hbar, each normalized to its positive-frequency
    plane wave at t = 0.  V is constant outside the forcing [-x1, -x2], where
    phi = A e^{-i sigma (t - t_c) / hbar} + B e^{i sigma (t - t_c) / hbar}:
    the plane wave exp(-i p0 t / hbar) for t >= -x2, and the pair at sigma_in
    matched at -x1 for t <= -x1.  Inside, Chebyshev panels cut at the shape's
    joins and about one period 2 pi hbar / max sigma long hold the collocated
    solution on `edges`, refined by `_refine_panels` until each panel's tail
    meets _MODE_RTOL.  So the stack is exact at any time of its domain [lo,
    hi]; `tail` and `panels` are its worst relative Chebyshev tail and its
    number of collocation panels.  `sigma` reads sigma_p(t) from `dynamics`."""

    def __init__(self, profile, p, hbar, mass, lo, hi):
        self.profile, self.p, self.hbar, self.mass = profile, p, hbar, mass
        self.lo, self.hi = lo, hi
        self.p0 = p0 = self.sigma(0.0)[:, 0]
        cuts = _transition_cuts(profile)
        # a Python float, so an overflowed stack gives a NaN count, not a warning
        sigma_max = float(np.max(self.sigma(np.linspace(lo, hi, 4097))))
        counts = np.ceil(np.diff(cuts) * (sigma_max / (2.0 * np.pi * hbar)))
        if not counts.sum() <= _MAX_MODE_PANELS:
            raise ValueError(f"mode functions at hbar={hbar:.3g} need {counts.sum():.3g} "
                             f"collocation panels, above the limit of {_MAX_MODE_PANELS}")
        edges = np.concatenate([np.linspace(a, b, int(c) + 1)[:-1]
                                for a, b, c in zip(cuts, cuts[1:], counts)] + [cuts[-1:]])
        wave = np.exp(-1j * p0 * cuts[-1] / hbar)
        y_end = np.stack([wave, -1j * p0 * wave])
        edges, (tails, self.coefs, y) = _refine_panels(
            lambda e: _collocate(profile, p, mass, hbar, e, y_end), edges, _MODE_RTOL,
            "mode collocation")
        self.edges, self.panels, self.tail = edges, edges.size - 1, float(tails.max())
        sigma_in = self.sigma(cuts[:1])[:, 0]
        r = 1j * y[1] / sigma_in
        # (t_c, sigma, A, B) after and before the forcing
        self.closed = ((cuts[-1], p0, wave, 0.0),
                       (cuts[0], sigma_in, 0.5 * (y[0] + r), 0.5 * (y[0] - r)))

    def modes(self, t):
        """(phi, dphi/dt) at the times t, each of shape t.shape + (M,)."""
        t_arr = _domain_times(t, self.lo, self.hi, "mode", slack=1e-9)
        out = np.empty((t_arr.size, self.coefs.shape[2]), dtype=complex)
        late, early = t_arr >= self.edges[-1], t_arr <= self.edges[0]
        for side, (t_c, sigma, fwd, back) in zip((late, early), self.closed):
            wave = np.exp(-1j * np.outer(t_arr[side] - t_c, sigma) / self.hbar)
            fwd, back = fwd * wave, back * np.conj(wave)
            out[side] = np.hstack([fwd + back, -1j * sigma / self.hbar * (fwd - back)])
        inner = ~late & ~early
        out[inner] = _panel_eval(self.coefs, self.edges, t_arr[inner],
                                 np.searchsorted(self.edges, t_arr[inner]) - 1)
        out = out.reshape(np.shape(t) + (2, len(self.p)))  # phi columns first
        return out[..., 0, :], out[..., 1, :]

    def sigma(self, t) -> np.ndarray:
        """Local energies sqrt((p - V(t))^2 + m^2), (M, N) for N times t:
        the time-axis first integral of each momentum of the stack."""
        return _first_integrals(self.profile, self.p, self.mass, t)[0][..., 0]

    def wronskian(self) -> np.ndarray:
        """i hbar (phi* dphi - dphi* phi) at the collocation nodes, (N, M),
        equal to 2 p0."""
        phi, dphi = self.modes(_panel_nodes(self.edges).ravel())
        return (1j * self.hbar * (np.conj(phi) * dphi - np.conj(dphi) * phi)).real

    def wronskian_residual(self) -> float:
        """The worst relative Wronskian error over the stack's columns."""
        return float(np.max(np.abs(self.wronskian() / (2.0 * self.p0) - 1.0)))


def solve_mode_function(profile: PotentialProfile, p, hbar: float,
                        t_span: tuple[float, float], mass: float = 1.0) -> ModeFunction:
    """Solve the mode equation over t_span (t_span[0] < 0, where the
    potential may act; plane-wave data is imposed at t = 0) for a momentum
    stack p of shape (M, 3), or (3,) for a stack of one, at a finite
    positive hbar.  Closed forms hold outside the forcing and Chebyshev
    collocation inside it, V(t) sampled once for all panels, nodes and
    momenta, so the returned ModeFunction is exact at any time of t_span.
    _MODE_RTOL bounds each panel's relative Chebyshev tail, the two highest
    coefficients of phi and of dphi/dt against the largest, an estimate of
    its relative error; a panel still above it after its halvings raises a
    RuntimeError.  ValueError for an hbar or a mass not finite and positive.
    """
    if profile.axis != "time":
        raise ValueError("mode functions are defined for time-dependent potentials")
    if not (np.isfinite(hbar) and hbar > 0.0):
        raise ValueError(f"hbar must be finite and positive, got {hbar}")
    if not (np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and positive, got {mass}")
    p = np.asarray(p, dtype=float)
    stack = np.atleast_2d(p)
    if p.ndim > 2 or stack.shape[1] != 3:
        raise ValueError("p must have shape (3,) or (M, 3)")
    t_lo, t_hi = float(t_span[0]), max(float(t_span[1]), 0.0)
    if t_lo >= 0.0:
        raise ValueError("t_span must start before t = 0")
    return ModeFunction(profile, stack, float(hbar), mass, t_lo, t_hi)


def amplitude_quantum(traj: Trajectory, window: CutoffWindow, modes: ModeFunction, ks, ns,
                      charge: float) -> np.ndarray:
    """Finite-hbar one-photon amplitudes of S samples (k_s, n_s), (S, 4),
    from one mode stack that holds p first and then each P_s = p - hbar k_s n_s:

        A^i = -e int dt e^{ikt} phi_P* phi_p (p^i - V^i(t)) / p0 . chi(xi(t)),
        A^0 = -(i e hbar / 2 p0) int dt (phi_P* d_t phi_p - d_t phi_P* phi_p)
                                        e^{ikt} chi(xi(t)),

    with the same window as the classical route, mapped to t through the
    classical trajectory's xi.  The stack is evaluated once per sample, and
    p - V(t) is the mechanical momentum of `dynamics._first_integrals`."""
    ks = np.asarray(ks, dtype=float)
    ns = _check_direction(ns, ndim=2)
    if ks.shape != (len(ns),) or modes.p.shape != (len(ns) + 1, 3):
        raise ValueError("the mode stack must hold p and one P per (k, n) sample")
    p, hbar, p0 = modes.p[0], modes.hbar, modes.p0[0]
    miss = np.linalg.norm(modes.p[1:] - (p - hbar * ks[:, None] * ns), axis=1)
    if np.any(miss > 1e-9 * max(1.0, np.linalg.norm(p))):
        raise ValueError("mode stack mismatch: each P must equal p - hbar k n")
    for n in ns:
        _require_plateau_covers(traj, n, window)
    spans = window_time_range(traj, ns, window)
    if np.any(spans[:, 0] < modes.lo - 1e-9) or np.any(spans[:, 1] > modes.hi + 1e-9):
        raise ValueError("mode functions do not cover the window support in t")

    out = np.empty((len(ns), 4), dtype=complex)
    for s, (k, n, (t_lo, t_hi)) in enumerate(zip(ks, ns, spans), start=1):
        sigma = modes.sigma(np.linspace(t_lo, t_hi, 513))
        rate = k + float(np.max(np.abs(sigma[0] - sigma[s]))) / hbar
        edges = _phase_edges(max(t_lo, modes.lo), min(t_hi, modes.hi), rate)
        ts, w = _gauss_panels(edges, _PANEL_ORDER)
        phi, dphi = modes.modes(ts)
        gate = window.chi(traj.xi(n, ts)) * w * _cis(k * ts)
        wvec = _first_integrals(traj.profile, p, modes.mass, ts)[0][:, 1:]
        out[s - 1, 1:] = -charge / p0 * ((np.conj(phi[:, s]) * phi[:, 0] * gate) @ wvec)
        bracket = np.conj(phi[:, s]) * dphi[:, 0] - np.conj(dphi[:, s]) * phi[:, 0]
        out[s - 1, 0] = -1j * charge * hbar / (2.0 * p0) * np.sum(bracket * gate)
    return out


# ---------------------------------------------------------------------------
# spectra: radiated energy and emission probability
# ---------------------------------------------------------------------------


def _minkowski_sq(a: np.ndarray) -> np.ndarray:
    """-(A . A*) = |A_vec|^2 - |A^0|^2 along the last axis of a (..., 4)."""
    sq = a.real**2 + a.imag**2
    return sq[..., 1:].sum(axis=-1) - sq[..., 0]


@dataclass(frozen=True)
class EnergyReport:
    """Windowed radiated energy, its taper-only baseline, and the cut."""

    total: float
    baseline: float
    k_max: float
    octaves: int

    @property
    def physical(self) -> float:
        return self.total - self.baseline


def radiated_energy(traj: Trajectory, window: CutoffWindow, charge: float,
                    n_polar: int = 16, n_azimuth: int = 32,
                    rel_floor: float = 1e-12, max_octaves: int = 48) -> EnergyReport:
    """E = int d^3k/((2pi)^3 2k) k (-A.A*) for the windowed amplitude, with
    the taper-only amplitude integrated on the same nodes as the baseline;
    the difference isolates the acceleration's own radiation.

    The k integral climbs octave panels until the octave's peak integrand
    falls below rel_floor of the global peak (smooth tapers guarantee the
    decay); exceeding max_octaves raises a spectral error.
    """
    img_lo, img_hi = acceleration_xi_bounds(traj)
    window.require_covers(img_lo, img_hi, "the acceleration interval")
    dirs, wd = _direction_grid(traj, n_polar, n_azimuth)
    span = window.support[1] - window.support[0]
    vmax = _max_speed(traj)

    total = 0.0
    base = 0.0
    peak = 0.0
    oct_peak = k_hi = 0.0  # named in the stop-rule error, even with no octave run
    for octave, (k_lo, k_hi) in zip(range(max_octaves), _octaves(span)):
        # while the taper transforms are alive the integrand beats at pair
        # separations up to the full support span; afterwards only the
        # acceleration image matters
        k_rate = span if k_lo * window.width < 30.0 else (img_hi - img_lo) + 0.25 * span
        kp, wk = _k_panels(k_lo, k_hi, 0.75 * k_rate)
        k2 = kp.ravel() ** 2
        t_rate = 0.75 * k_hi * (1.0 + vmax)
        oct_peak = 0.0
        for wdir, (a_rad, a_tap, _) in zip(wd, _amplitudes(traj, kp, dirs, window, charge, t_rate)):
            g_full = k2 * _minkowski_sq(a_rad + a_tap)
            g_tap = k2 * _minkowski_sq(a_tap)
            total += wdir * (wk @ g_full) / _8PI3
            base += wdir * (wk @ g_tap) / _8PI3
            oct_peak = max(oct_peak, float(np.max(np.abs(g_full))))
        peak = max(peak, oct_peak)
        if octave >= 3 and oct_peak < rel_floor * peak:
            return EnergyReport(total=total, baseline=base, k_max=k_hi, octaves=octave + 1)
    raise RuntimeError(
        f"radiated-energy spectrum failed to decay below the floor: {max_octaves} octaves "
        f"up to k_hi = {k_hi:.6g}, last octave peak / global peak = "
        f"{oct_peak / max(peak, 1e-300):.3e} above rel_floor {rel_floor:.1e}"
    )


def larmor_radiated_energy(traj: Trajectory, alpha_c: float) -> float:
    """(2 alpha_c / 3) int gamma^6 [a^2 - (v x a)^2] dt over the acceleration."""

    def f(ts):
        kin = kinematics(traj, ts)
        cross = np.cross(kin.v, kin.a)
        return kin.gamma**6 * (np.einsum("ij,ij->i", kin.a, kin.a)
                               - np.einsum("ij,ij->i", cross, cross))

    return 2.0 * alpha_c / 3.0 * float(_support_integral(f, traj, epsrel=1e-12))


@dataclass(frozen=True)
class ProbabilityReport:
    """Reduced emission probability, two independent evaluations."""

    assembled: float     # from |A|^2 on a k quadrature
    double_xi: float     # from the pair kernel with the k integral closed
    baseline: float      # taper-only |A|^2 on the same k nodes
    k_max: float

    @property
    def difference(self) -> float:
        return self.assembled - self.double_xi

    @property
    def physical(self) -> float:
        return self.assembled - self.baseline


def _assembled_probability(traj: Trajectory, window: CutoffWindow, k_max: float,
                           dirs: np.ndarray, wd: np.ndarray) -> tuple[float, float]:
    """(total, taper-only) reduced probability cut at k_max, per unit e^2."""
    span = window.support[1] - window.support[0]
    vmax_acc = _max_speed(traj)

    total = 0.0
    base = 0.0
    for a, b in _octaves(span, k_max):
        kp, wk = _k_panels(a, b, span)
        t_rate = b * (1.0 + vmax_acc)
        wk_k = wk * kp.ravel()
        for wdir, (a_rad, a_tap, _) in zip(wd, _amplitudes(traj, kp, dirs, window, 1.0, t_rate)):
            total += wdir * (wk_k @ _minkowski_sq(a_rad + a_tap)) / _8PI3
            base += wdir * (wk_k @ _minkowski_sq(a_tap)) / _8PI3
    return total, base


def _double_xi_probability(traj: Trajectory, window: CutoffWindow, k_max: float,
                           dirs: np.ndarray, wd: np.ndarray) -> float:
    """Per direction, -sum_ij g_i g_j (u_i . u_j) K(xi_i - xi_j) for the gated
    four-velocity currents g u, with the Minkowski product (+, -, -, -) and
    the pair kernel K(d) = int_0^K k cos(k d) dk = K^2 (cos x - 1 + x sin x) / x^2
    at x = K d, on the nodes of one _windowed_nodes call.  With 1 - cos x =
    2 sin^2(x/2) it is 2 K^2 q (c - q), q = s / x, for s = sin(x/2) and
    c = cos(x/2): free of the cancellation in cos x - 1 at small x, and
    stationary in q there, so the rounding of s barely reaches it.  One
    matrix product per block gives s and c by angle addition of the per-node
    half angles h = K xi / 2, and x = K xi_i - K xi_j rounded once, as a
    subtraction gives it; a pair with x = 0 (sought only in blocks whose K xi
    ranges overlap) takes the limit K(0) = K^2 / 2.  K is even, so it is
    evaluated in place in blocks of _PAIR_BLOCK nodes over the upper
    triangle, off-diagonal blocks twice; 2 K^2 multiplies the sum."""
    out = 0.0
    for (xi, gate, u), wdir in zip(_windowed_nodes(traj, dirs, window, k_max), wd):
        kx = k_max * xi
        sin, cos = np.sin(0.5 * kx), np.cos(0.5 * kx)
        zero, one = np.zeros_like(kx), np.ones_like(kx)
        # rows (sin h_i, -cos h_i, 0, 0), (cos h_i, sin h_i, 0, 0) and
        # (0, 0, K xi_i, 1) against the columns (cos h_j, sin h_j, 1, -K xi_j)
        # give s, c and x; each product in x is by 0 or 1, so x is the
        # difference rounded once
        rows = np.array([[sin, -cos, zero, zero], [cos, sin, zero, zero],
                         [zero, zero, kx, one]]).transpose(0, 2, 1)
        cols = np.array([cos, sin, one, -kx])
        current = gate[:, None] * u
        form = np.zeros(4)
        starts = range(0, xi.size, _PAIR_BLOCK)
        lo = np.minimum.reduceat(kx, starts).tolist()  # each block's K xi range
        hi = np.maximum.reduceat(kx, starts).tolist()
        for bi, i in enumerate(starts):
            r = slice(i, i + _PAIR_BLOCK)
            n_r = kx[r].size
            rows_r = rows[:, r].reshape(-1, 4)
            for bj, j in enumerate(starts[bi:], bi):
                c = slice(j, j + _PAIR_BLOCK)
                q, kern, x = (rows_r @ cols[:, c]).reshape(3, n_r, -1)
                if lo[bi] <= hi[bj] and lo[bj] <= hi[bi]:
                    # x = 0 takes the limits s / x = 1/2 and c = 1, with no 0/0
                    at_zero = x == 0.0
                    q[at_zero], x[at_zero], kern[at_zero] = 1.0, 2.0, 1.0
                # q (c - q) with q = s / x, in place in the cosine block
                q /= x
                kern -= q
                kern *= q
                form += (1.0 if i == j else 2.0) * np.sum(current[r] * (kern @ current[c]), axis=0)
        out += wdir * (-(2.0 * k_max**2 * form @ _METRIC)) / _8PI3
    return out


def emission_probability_reduced(traj: Trajectory, window: CutoffWindow,
                                 n_polar: int = 8, n_azimuth: int = 16,
                                 k_max: float | None = None) -> ProbabilityReport:
    """P = int d^3k/((2pi)^3 2k) (-A.A*) / e^2, cut at k_max, two ways:

    assembled — k quadrature of the amplitudes;
    double-xi — the same k integral done in closed form per trajectory pair
    point, leaving a double time integral against the kernel
    int_0^K k cos(k (xi - xi')) dk (the antisymmetric sine part cancels
    against the symmetric current kernel).

    Agreement is a Parseval identity: one quadratic form evaluated through
    two independent discretizations.  The taper-only probability on the
    same nodes is reported as the baseline; assembled minus baseline is the
    window-artifact-free physical value.  A k_max that is not finite and
    positive raises ValueError up front.
    """
    k_max = float(24.0 * np.pi / window.width if k_max is None else k_max)
    if not (np.isfinite(k_max) and k_max > 0.0):
        raise ValueError(f"k_max must be finite and positive, got {k_max}")
    window.require_covers(*acceleration_xi_bounds(traj), "the acceleration interval")
    dirs, wd = _direction_grid(traj, n_polar, n_azimuth)
    assembled, base = _assembled_probability(traj, window, k_max, dirs, wd)
    double_xi = _double_xi_probability(traj, window, k_max, dirs, wd)
    return ProbabilityReport(assembled=assembled, double_xi=double_xi,
                             baseline=base, k_max=k_max)


# ---------------------------------------------------------------------------
# amplitude-derivative shift route
# ---------------------------------------------------------------------------


def shift_from_amplitudes(traj: Trajectory, basis, window: CutoffWindow, charge: float,
                          n_polar: int = 16, n_azimuth: int = 32,
                          octave_tol: float = 1e-6, max_octaves: int = 40) -> np.ndarray:
    """Shift from the momentum derivative of the emission amplitude,

        dx^i = (1/(2 (2pi)^3)) int dOmega int k dk Im[ A*^0 dA^0/dp^i
                                                       - A*_vec . dA_vec/dp^i ],

    with dA/dp taken exactly along traj (`_amplitudes`) from its
    kick-time-0 Jacobi `basis`.  The k integral climbs octaves until two
    consecutive octaves move the running total by less than octave_tol
    relative.
    """
    basis = _zero_kick_basis(traj, basis)
    window.require_covers(*acceleration_xi_bounds(traj), "the acceleration interval")
    dirs, wd = _direction_grid(traj, n_polar, n_azimuth)
    span = window.support[1] - window.support[0]
    vmax = _max_speed(traj)
    total, small_streak = np.zeros(3), 0
    contrib, k_hi = np.zeros(3), 0.0  # named in the stop-rule error, even with no octave run
    for octave, (k_lo, k_hi) in zip(range(max_octaves), _octaves(span)):
        kp, wk = _k_panels(k_lo, k_hi, span)
        wk_k = wk * kp.ravel()
        t_rate = float(np.max(np.abs(kp))) * (1.0 + vmax)
        amps = _amplitudes(traj, kp, dirs, window, charge, t_rate, basis)
        contrib = sum(wdir * (wk_k @ np.imag(np.einsum("km,kmi->ki",
                                                       np.conj(a_rad + a_tap) * _METRIC, da)))
                      for wdir, (a_rad, a_tap, da) in zip(wd, amps)) / _8PI3
        total += contrib
        if np.linalg.norm(contrib) < octave_tol * np.linalg.norm(total):
            small_streak += 1
            if octave >= 5 and small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise RuntimeError(
        f"amplitude-derivative shift failed to converge in k: {max_octaves} octaves up to "
        f"k_hi = {k_hi:.6g}, last contribution / total = "
        f"{np.linalg.norm(contrib) / max(np.linalg.norm(total), 1e-300):.3e} "
        f"against octave_tol {octave_tol:.1e}"
    )

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
for an exact zero-acceleration baseline.  From the amplitudes: the
radiated-energy spectrum, the reduced emission probability in two
independent evaluations (a Parseval pair), and the shift route that
differentiates the amplitude with respect to the final momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .dynamics import Trajectory, integrate_trajectory, kinematics
from .potentials import PotentialProfile, _smoothstep7, eval_potential
from .shift import _gauss_panels, _support_integral, sphere_quadrature

__all__ = [
    "CutoffWindow",
    "ModeFunction",
    "EmissionAmplitude",
    "EnergyReport",
    "ProbabilityReport",
    "TrajectoryFamily",
    "acceleration_xi_bounds",
    "default_window",
    "window_time_range",
    "solve_mode_function",
    "amplitude_classical",
    "amplitude_quantum",
    "taper_amplitude",
    "radiative_amplitude",
    "radiated_energy",
    "larmor_radiated_energy",
    "emission_probability_reduced",
    "build_trajectory_family",
    "shift_from_amplitudes",
    "free_twin",
]

_8PI3 = 2.0 * (2.0 * np.pi) ** 3  # the 2(2pi)^3 of the k-space measure


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
        xi_arr = np.asarray(xi, dtype=float)
        scalar = xi_arr.ndim == 0
        xi_arr = np.atleast_1d(xi_arr)
        out = np.zeros(xi_arr.shape)
        out[(xi_arr >= self.xi_on) & (xi_arr <= self.xi_off)] = 1.0
        lo, hi = self.support
        up = (xi_arr > lo) & (xi_arr < self.xi_on)
        down = (xi_arr > self.xi_off) & (xi_arr < hi)
        if np.any(up):
            out[up] = _smoothstep7((xi_arr[up] - lo) / self.width)[0]
        if np.any(down):
            out[down] = _smoothstep7((hi - xi_arr[down]) / self.width)[0]
        return out[0] if scalar else out

    def chi_prime(self, xi):
        xi_arr = np.asarray(xi, dtype=float)
        scalar = xi_arr.ndim == 0
        xi_arr = np.atleast_1d(xi_arr)
        out = np.zeros(xi_arr.shape)
        lo, hi = self.support
        up = (xi_arr > lo) & (xi_arr < self.xi_on)
        down = (xi_arr > self.xi_off) & (xi_arr < hi)
        if np.any(up):
            out[up] = _smoothstep7((xi_arr[up] - lo) / self.width)[1] / self.width
        if np.any(down):
            out[down] = -_smoothstep7((hi - xi_arr[down]) / self.width)[1] / self.width
        return out[0] if scalar else out

    def with_width(self, width: float) -> "CutoffWindow":
        """Same plateau, different taper width (robustness sweeps)."""
        return CutoffWindow(self.xi_on, self.xi_off, float(width))

    def shifted(self, c: float) -> "CutoffWindow":
        return CutoffWindow(self.xi_on + c, self.xi_off + c, self.width)


def acceleration_xi_bounds(traj: Trajectory, num: int = 513) -> tuple[float, float]:
    """Range of xi = t - n.x(t) over the acceleration interval, over every
    direction n at once (|n.x| <= |x|)."""
    ts = np.linspace(traj.acc_start, traj.acc_end, num)
    r = np.linalg.norm(traj.position(ts), axis=1)
    return float(np.min(ts - r)), float(np.max(ts + r))


def default_window(traj: Trajectory, pad_fraction: float = 0.5,
                   width_fraction: float = 0.5) -> CutoffWindow:
    """Plateau = direction-independent xi-image of the acceleration interval
    padded by pad_fraction x duration; taper width_fraction x duration."""
    lo, hi = acceleration_xi_bounds(traj)
    dur = traj.acc_duration
    return CutoffWindow(lo - pad_fraction * dur, hi + pad_fraction * dur,
                        width_fraction * dur)


def _xi_root(traj: Trajectory, n, target: float) -> float:
    # xi(n, t) is strictly increasing (d xi/dt = 1 - n.v > 0), so a simple
    # expanding bracket always terminates
    f = lambda t: float(traj.xi(n, t)) - target
    a = min(traj.t_min, -1.0)
    b = 1.0
    for _ in range(200):
        if f(a) <= 0.0:
            break
        a *= 2.0
    for _ in range(200):
        if f(b) >= 0.0:
            break
        b *= 2.0
    return brentq(f, a, b, xtol=1e-12)


def window_time_range(traj: Trajectory, n, window: CutoffWindow) -> tuple[float, float]:
    """Times between which chi(xi(n, t)) can be nonzero."""
    lo, hi = window.support
    return _xi_root(traj, n, lo), _xi_root(traj, n, hi)


def _require_plateau_covers(traj: Trajectory, n, window: CutoffWindow):
    img_lo = float(traj.xi(n, traj.acc_start))
    img_hi = float(traj.xi(n, traj.acc_end))
    window.require_covers(img_lo, img_hi, "the acceleration interval")


def _require_covers_all_directions(traj: Trajectory, window: CutoffWindow):
    lo, hi = acceleration_xi_bounds(traj)
    window.require_covers(lo, hi, "the acceleration interval")


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


# one 12-point Gauss-Legendre panel per oscillation period keeps the
# quadrature error far below 1e-10
_PANEL_ORDER = 12


def _phase_edges(a: float, b: float, rate: float, base_panels: int = 48) -> np.ndarray:
    """Equal panel edges on [a, b], at least one panel per period of a phase
    turning at `rate` rad/unit."""
    n_panels = int(max(base_panels, np.ceil((b - a) * max(rate, 0.0) / (2.0 * np.pi))))
    return np.linspace(a, b, n_panels + 1)


def _max_speed(traj: Trajectory, t_lo: float, t_hi: float, num: int = 129) -> float:
    ts = np.linspace(t_lo, t_hi, num)
    return float(np.max(np.linalg.norm(traj.velocity(ts), axis=1)))


def _fourvelocity_dt(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """dx^mu/dt = (1, v) as a (N, 4) array."""
    out = np.ones((ts.size, 4))
    out[:, 1:] = traj.velocity(ts)
    return out


def _classical_amplitude_batch(traj: Trajectory, ks: np.ndarray, n, window: CutoffWindow,
                               charge: float) -> np.ndarray:
    """Direct windowed A^mu(k) for a batch of k at one n; shape (nk, 4)."""
    n = np.asarray(n, dtype=float)
    t_lo, t_hi = window_time_range(traj, n, window)
    rate = float(np.max(np.abs(ks))) * (1.0 + _max_speed(traj, t_lo, t_hi))
    ts, w = _gauss_panels(_phase_edges(t_lo, t_hi, rate), _PANEL_ORDER)
    xi = traj.xi(n, ts)
    gate = window.chi(xi) * w
    u = _fourvelocity_dt(traj, ts) * gate[:, None]
    phase = np.exp(1j * np.outer(np.asarray(ks, dtype=float), xi))
    return -charge * (phase @ u)


def _radiative_amplitude_batch(traj: Trajectory, ks: np.ndarray, n, charge: float,
                               rate=None) -> np.ndarray:
    """The by-parts radiative piece, supported on the acceleration interval:

        A_rad^mu(k) = (e/ik) int_acc dt [xd (0, a) + (n.a)(1, v)]^mu / xd^2 e^{ik xi},

    with xd = 1 - n.v.  Exactly transverse (k_mu A_rad^mu = 0) and
    window-independent."""
    ks = np.asarray(ks, dtype=float)
    n = np.asarray(n, dtype=float)
    if rate is None:
        rate = float(np.max(np.abs(ks))) * (
            1.0 + _max_speed(traj, traj.acc_start, traj.acc_end))
    edges = _phase_edges(traj.acc_start, traj.acc_end, rate, base_panels=24)
    ts, w = _gauss_panels(edges, _PANEL_ORDER)
    kin = kinematics(traj, ts)
    xi = ts - traj.position(ts) @ n
    xd = 1.0 - kin.v @ n
    na = kin.a @ n
    w0 = (na / xd**2) * w
    wj = ((kin.a * xd[:, None] + na[:, None] * kin.v) / (xd**2)[:, None]) * w[:, None]
    phase = np.exp(1j * np.outer(ks, xi))
    out = np.empty((ks.size, 4), dtype=complex)
    out[:, 0] = phase @ w0
    out[:, 1:] = phase @ wj
    return (charge / (1j * ks))[:, None] * out


def _taper_transforms(window: CutoffWindow, ks: np.ndarray):
    """T_left(k), T_right(k): Fourier transforms of chi' over each taper.
    Window-only — shared across directions and trajectories."""
    ks = np.asarray(ks, dtype=float)
    lo, hi = window.support
    rate = float(np.max(np.abs(ks)))
    out = []
    for a, b in ((lo, window.xi_on), (window.xi_off, hi)):
        xs, w = _gauss_panels(_phase_edges(a, b, rate, base_panels=24), _PANEL_ORDER)
        cp = window.chi_prime(xs) * w
        out.append(np.exp(1j * np.outer(ks, xs)) @ cp)
    return out[0], out[1]


def _taper_amplitude_batch(traj: Trajectory, ks: np.ndarray, n, window: CutoffWindow,
                           charge: float, transforms=None) -> np.ndarray:
    """A_taper^mu(k) = (e/ik)[W_in^mu T_left + W_out^mu T_right]; the coasting
    four-velocity-per-xi W = (1, v)/(1 - n.v) is constant on each taper."""
    n = np.asarray(n, dtype=float)
    ks = np.asarray(ks, dtype=float)
    v_in = traj.velocity(traj.acc_start)
    v_out = traj.velocity(0.0)
    w_in = np.concatenate([[1.0], v_in]) / (1.0 - n @ v_in)
    w_out = np.concatenate([[1.0], v_out]) / (1.0 - n @ v_out)
    if transforms is None:
        transforms = _taper_transforms(window, ks)
    t_left, t_right = transforms
    pref = charge / (1j * ks)
    return pref[:, None] * (np.outer(t_left, w_in) + np.outer(t_right, w_out))


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionAmplitude:
    """One-photon amplitude four-vector at wave number k, direction n."""

    p: np.ndarray
    k: float
    n: np.ndarray
    a: np.ndarray  # complex four-vector, index 0 = time


def _check_direction(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(n @ n - 1.0) > 1e-10:
        raise ValueError("direction n must be a unit 3-vector")
    return n


def amplitude_classical(traj: Trajectory, k: float, n, window: CutoffWindow,
                        charge: float) -> EmissionAmplitude:
    """A^mu = -e int dxi (dx^mu/dxi) chi(xi) e^{ik xi}, evaluated in t.

    The plateau must cover the acceleration xi-image for this direction;
    oscillation-aware composite quadrature keeps the relative error near
    1e-10 for k x (window span) into the thousands.
    """
    n = _check_direction(n)
    _require_plateau_covers(traj, n, window)
    a = _classical_amplitude_batch(traj, np.array([float(k)]), n, window, charge)[0]
    return EmissionAmplitude(p=traj.p_final.copy(), k=float(k), n=n, a=a)


def radiative_amplitude(traj: Trajectory, k: float, n, charge: float) -> EmissionAmplitude:
    """Window-independent radiative part of the amplitude (see the split in
    the module docstring); A_windowed = A_rad + A_taper exactly."""
    n = _check_direction(n)
    a = _radiative_amplitude_batch(traj, np.array([float(k)]), n, charge)[0]
    return EmissionAmplitude(p=traj.p_final.copy(), k=float(k), n=n, a=a)


def taper_amplitude(traj: Trajectory, k: float, n, window: CutoffWindow,
                    charge: float) -> EmissionAmplitude:
    """The window's own contribution: the zero-acceleration baseline
    generalized to a trajectory whose in/out velocities differ."""
    n = _check_direction(n)
    _require_plateau_covers(traj, n, window)
    a = _taper_amplitude_batch(traj, np.array([float(k)]), n, window, charge)[0]
    return EmissionAmplitude(p=traj.p_final.copy(), k=float(k), n=n, a=a)


# ---------------------------------------------------------------------------
# finite-hbar mode functions
# ---------------------------------------------------------------------------


class ModeFunction:
    """Numerical solution of hbar^2 phi'' + sigma_p(t)^2 phi = 0 normalized
    to the positive-frequency plane wave at t = 0."""

    def __init__(self, profile, p, hbar, mass, ts, values, dvalues, sols):
        self.profile = profile
        self.p = np.asarray(p, dtype=float)
        self.hbar = float(hbar)
        self.mass = float(mass)
        self.ts = ts              # uniform sample grid
        self.values = values      # phi on ts
        self.dvalues = dvalues    # dphi/dt on ts
        self.p0 = float(np.sqrt(self.p @ self.p + self.mass**2))
        self._sols = sols         # dense segments [(lo, hi, sol)]

    def sigma(self, t):
        """Local energy sqrt((p - V(t))^2 + m^2)."""
        V = np.atleast_2d(eval_potential(self.profile, t))[:, 1:]
        w = self.p[None, :] - V
        out = np.sqrt(np.einsum("ij,ij->i", w, w) + self.mass**2)
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    def __call__(self, t):
        """(phi, dphi/dt) interpolated from the dense solution."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.ts[0], self.ts[-1]
        if np.any(t_arr < lo - 1e-9) or np.any(t_arr > hi + 1e-9):
            raise ValueError(f"t outside mode domain [{lo}, {hi}]")
        out = np.empty((t_arr.size, 2), dtype=complex)
        for (a, b, sol) in self._sols:
            mask = (t_arr >= a - 1e-12) & (t_arr <= b + 1e-12)
            if np.any(mask):
                out[mask] = sol(np.clip(t_arr[mask], a, b)).T
        if np.asarray(t).ndim == 0:
            return out[0, 0], out[0, 1]
        return out[:, 0], out[:, 1]

    def wronskian(self, t=None):
        """i hbar (phi* dphi - dphi* phi); constant and equal to 2 p0."""
        if t is None:
            phi, dphi = self.values, self.dvalues
        else:
            phi, dphi = self(t)
        return (1j * self.hbar * (np.conj(phi) * dphi - np.conj(dphi) * phi)).real

    def wronskian_residual(self) -> float:
        return float(np.max(np.abs(self.wronskian() / (2.0 * self.p0) - 1.0)))


def solve_mode_function(profile: PotentialProfile, p, hbar: float,
                        t_span: tuple[float, float], mass: float = 1.0,
                        num: int | None = None, rtol: float = 1e-11) -> ModeFunction:
    """Integrate the mode equation over t_span (t_span[0] < 0, where the
    potential may act; plane-wave data is imposed at t = 0) and sample on a
    uniform grid.

    The grid must resolve the oscillation: at least 20 points per period
    2 pi hbar / max sigma_p, else a resolution error is raised.
    """
    if profile.axis != "time":
        raise ValueError("mode functions are defined for time-dependent potentials")
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    p = np.asarray(p, dtype=float)
    t_lo, t_hi = float(t_span[0]), max(float(t_span[1]), 0.0)
    if t_lo >= 0.0:
        raise ValueError("t_span must start before t = 0")

    probe = np.linspace(t_lo, t_hi, 4097)
    V = eval_potential(profile, probe)[:, 1:]
    sig = np.sqrt(np.einsum("ij,ij->i", p[None, :] - V, p[None, :] - V) + mass**2)
    period = 2.0 * np.pi * hbar / float(np.max(sig))
    needed = int(np.ceil((t_hi - t_lo) / period * 20.0)) + 1
    if num is None:
        num = max(1001, needed)
    elif num < needed:
        raise ValueError(
            f"mode grid under-resolved: {num} points for {(t_hi - t_lo) / period:.1f} "
            f"oscillation periods (need >= 20 per period, i.e. >= {needed})"
        )

    p0 = float(np.sqrt(p @ p + mass**2))
    h2 = hbar * hbar

    def rhs(t, y):
        w = p - eval_potential(profile, t)[1:]
        return np.array([y[1], -((w @ w + mass**2) / h2) * y[0]])

    y0 = np.array([1.0 + 0.0j, -1j * p0 / hbar])
    sols = []
    for end in (t_lo, t_hi):
        if end == 0.0:
            continue
        res = solve_ivp(rhs, (0.0, end), y0, method="DOP853", dense_output=True,
                        rtol=rtol, atol=rtol)
        if not res.success:
            raise RuntimeError(f"mode integration failed: {res.message}")
        sols.append((min(0.0, end), max(0.0, end), res.sol))

    mode = ModeFunction(profile, p, hbar, mass, np.linspace(t_lo, t_hi, num),
                        None, None, sols)
    phi, dphi = mode(mode.ts)
    mode.values, mode.dvalues = phi, dphi
    return mode


def amplitude_quantum(traj: Trajectory, window: CutoffWindow, mode_p: ModeFunction,
                      mode_P: ModeFunction, k: float, n, charge: float) -> EmissionAmplitude:
    """Finite-hbar one-photon amplitude from the mode pair (p, P = p - hbar k n):

        A^i = -e int dt e^{ikt} phi_P* phi_p (p^i - V^i(t)) / p0 . chi(xi(t)),
        A^0 = -(i e hbar / 2 p0) int dt (phi_P* d_t phi_p - d_t phi_P* phi_p)
                                        e^{ikt} chi(xi(t)),

    with the same window as the classical route, mapped to t through the
    classical trajectory's xi."""
    n = _check_direction(n)
    k = float(k)
    if abs(mode_p.hbar - mode_P.hbar) > 1e-15:
        raise ValueError("mode pair mismatch: different hbar")
    if mode_p.ts.shape != mode_P.ts.shape or not np.allclose(mode_p.ts, mode_P.ts):
        raise ValueError("mode pair mismatch: modes solved on different grids")
    expected = mode_p.p - mode_p.hbar * k * n
    if np.linalg.norm(mode_P.p - expected) > 1e-9 * max(1.0, np.linalg.norm(mode_p.p)):
        raise ValueError("mode pair mismatch: P must equal p - hbar k n")
    _require_plateau_covers(traj, n, window)

    t_lo, t_hi = window_time_range(traj, n, window)
    dom_lo, dom_hi = float(mode_p.ts[0]), float(mode_p.ts[-1])
    if t_lo < dom_lo - 1e-9 or t_hi > dom_hi + 1e-9:
        raise ValueError("mode functions do not cover the window support in t")

    hbar, p0 = mode_p.hbar, mode_p.p0
    probe = np.linspace(t_lo, t_hi, 513)
    dsig = np.abs(mode_p.sigma(probe) - mode_P.sigma(probe))
    rate = k + float(np.max(dsig)) / hbar
    edges = _phase_edges(max(t_lo, dom_lo), min(t_hi, dom_hi), rate)
    ts, w = _gauss_panels(edges, _PANEL_ORDER)

    phi_p, dphi_p = mode_p(ts)
    phi_P, dphi_P = mode_P(ts)
    gate = window.chi(traj.xi(n, ts)) * w * np.exp(1j * k * ts)

    V = eval_potential(traj.profile, ts)[:, 1:]
    wvec = mode_p.p[None, :] - V
    a = np.empty(4, dtype=complex)
    a[1:] = -charge / p0 * ((np.conj(phi_P) * phi_p * gate) @ wvec)
    bracket = np.conj(phi_P) * dphi_p - np.conj(dphi_P) * phi_p
    a[0] = -1j * charge * hbar / (2.0 * p0) * np.sum(bracket * gate)
    return EmissionAmplitude(p=mode_p.p.copy(), k=k, n=n, a=a)


# ---------------------------------------------------------------------------
# spectra: radiated energy and emission probability
# ---------------------------------------------------------------------------


def _minkowski_sq(a: np.ndarray) -> np.ndarray:
    """-(A . A*) = |A_vec|^2 - |A^0|^2 along the last axis of a (..., 4)."""
    mags = np.abs(a) ** 2
    return mags[..., 1:].sum(axis=-1) - mags[..., 0]


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
    _require_covers_all_directions(traj, window)
    v_axis = traj.velocity(0.0)
    dirs, wd = sphere_quadrature(n_polar, n_azimuth,
                                 axis=v_axis if v_axis @ v_axis > 0 else None)
    img_lo, img_hi = acceleration_xi_bounds(traj)
    s_lo, s_hi = window.support
    span = s_hi - s_lo
    vmax = _max_speed(traj, traj.acc_start, traj.acc_end)

    total = 0.0
    base = 0.0
    peak = 0.0
    k_edge = 2.0 * np.pi / span
    k_lo = 0.0
    octaves = 0
    while octaves < max_octaves:
        k_hi = k_edge * 2.0**octaves
        # while the taper transforms are alive the integrand beats at pair
        # separations up to the full support span; afterwards only the
        # acceleration image matters
        k_rate = span if k_lo * window.width < 30.0 else (img_hi - img_lo) + 0.25 * span
        edges = _phase_edges(k_lo, k_hi, 0.75 * k_rate, base_panels=4)
        ks, wk = _gauss_panels(edges, _PANEL_ORDER)
        transforms = _taper_transforms(window, ks)
        t_rate = 0.75 * k_hi * (1.0 + vmax)
        oct_peak = 0.0
        for n, wdir in zip(dirs, wd):
            a_tap = _taper_amplitude_batch(traj, ks, n, window, charge, transforms)
            g_full = ks**2 * _minkowski_sq(
                _radiative_amplitude_batch(traj, ks, n, charge, rate=t_rate) + a_tap)
            g_tap = ks**2 * _minkowski_sq(a_tap)
            total += wdir * (wk @ g_full) / _8PI3
            base += wdir * (wk @ g_tap) / _8PI3
            oct_peak = max(oct_peak, float(np.max(np.abs(g_full))))
        peak = max(peak, oct_peak)
        k_lo = k_hi
        octaves += 1
        if octaves >= 4 and oct_peak < rel_floor * peak:
            return EnergyReport(total=total, baseline=base, k_max=k_hi, octaves=octaves)
    raise RuntimeError("radiated-energy spectrum failed to decay below the floor")


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


def _pair_kernel(delta: np.ndarray, k_max: float) -> np.ndarray:
    """int_0^K k cos(k d) dk = (cos(Kd) - 1 + Kd sin(Kd)) / d^2, evaluated
    stably through the small-argument series."""
    x = k_max * delta
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)  # keep the masked branch finite
    direct = (np.cos(xs) - 1.0 + xs * np.sin(xs)) / np.where(small, 1.0, delta) ** 2
    x2 = x * x
    series = k_max**2 * (0.5 - x2 / 8.0 + x2 * x2 / 144.0)
    return np.where(small, series, direct)


def _assembled_probability(traj: Trajectory, window: CutoffWindow, k_max: float,
                           dirs: np.ndarray, wd: np.ndarray) -> tuple[float, float]:
    """(total, taper-only) reduced probability cut at k_max, per unit e^2."""
    s_lo, s_hi = window.support
    span = s_hi - s_lo
    vmax_acc = _max_speed(traj, traj.acc_start, traj.acc_end)

    # k edges: [0, k1] then octaves, clipped at the shared cut
    edges = [0.0, min(2.0 * np.pi / span, k_max)]
    while edges[-1] < k_max:
        edges.append(min(2.0 * edges[-1], k_max))

    total = 0.0
    base = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ks, wk = _gauss_panels(_phase_edges(a, b, span, base_panels=4), _PANEL_ORDER)
        transforms = _taper_transforms(window, ks)
        t_rate = b * (1.0 + vmax_acc)
        wk_k = wk * ks
        for n, wdir in zip(dirs, wd):
            a_tap = _taper_amplitude_batch(traj, ks, n, window, 1.0, transforms)
            amp = _radiative_amplitude_batch(traj, ks, n, 1.0, rate=t_rate) + a_tap
            total += wdir * (wk_k @ _minkowski_sq(amp)) / _8PI3
            base += wdir * (wk_k @ _minkowski_sq(a_tap)) / _8PI3
    return total, base


def _double_xi_probability(traj: Trajectory, window: CutoffWindow, k_max: float,
                           dirs: np.ndarray, wd: np.ndarray) -> float:
    out = 0.0
    for n, wdir in zip(dirs, wd):
        t_lo, t_hi = window_time_range(traj, n, window)
        rate = k_max * (1.0 + _max_speed(traj, t_lo, t_hi))
        ts, w = _gauss_panels(_phase_edges(t_lo, t_hi, rate), _PANEL_ORDER)
        xi = traj.xi(n, ts)
        gate = window.chi(xi) * w
        u = _fourvelocity_dt(traj, ts)
        c_mink = np.outer(u[:, 0], u[:, 0]) - u[:, 1:] @ u[:, 1:].T
        kern = _pair_kernel(xi[:, None] - xi[None, :], k_max)
        out += wdir * (-(gate @ (c_mink * kern) @ gate)) / _8PI3
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
    window-artifact-free physical value.
    """
    if k_max is None:
        k_max = 24.0 * np.pi / window.width
    k_max = float(k_max)
    _require_covers_all_directions(traj, window)
    v_axis = traj.velocity(0.0)
    dirs, wd = sphere_quadrature(n_polar, n_azimuth,
                                 axis=v_axis if v_axis @ v_axis > 0 else None)
    assembled, base = _assembled_probability(traj, window, k_max, dirs, wd)
    double_xi = _double_xi_probability(traj, window, k_max, dirs, wd)
    return ProbabilityReport(assembled=assembled, double_xi=double_xi,
                             baseline=base, k_max=k_max)


def free_twin(traj: Trajectory) -> Trajectory:
    """Zero-potential trajectory with the same anchor momentum and domain
    (the straight line used as the no-acceleration reference)."""
    profile = traj.profile
    quiet = PotentialProfile(axis=profile.axis, v_past=np.zeros(4),
                             x1=profile.x1, x2=profile.x2)
    return integrate_trajectory(quiet, traj.p_final, traj.mass, tol=traj.tol,
                                t_min=traj.t_min)


# ---------------------------------------------------------------------------
# amplitude-derivative shift route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryFamily:
    """Center trajectory plus the six momentum-displaced re-anchored ones,
    all integrated over one common time domain."""

    center: Trajectory
    plus: tuple
    minus: tuple
    eps: float

    def all(self):
        return (self.center,) + tuple(self.plus) + tuple(self.minus)


def build_trajectory_family(profile: PotentialProfile, p_final, mass: float,
                            tol: float = 1e-10, eps_rel: float = 1e-4) -> TrajectoryFamily:
    p = np.asarray(p_final, dtype=float)
    eps = eps_rel * float(np.linalg.norm(p))
    if eps <= 0.0:
        raise ValueError("p_final must be nonzero to set the derivative step")
    momenta = [p] + [p + eps * e for e in np.eye(3)] + [p - eps * e for e in np.eye(3)]
    first = [integrate_trajectory(profile, q, mass, tol) for q in momenta]
    t_min = min(tr.t_min for tr in first)
    rebuilt = [integrate_trajectory(profile, q, mass, tol, t_min=t_min) for q in momenta]
    return TrajectoryFamily(center=rebuilt[0], plus=tuple(rebuilt[1:4]),
                            minus=tuple(rebuilt[4:7]), eps=eps)


def shift_from_amplitudes(family: TrajectoryFamily, window: CutoffWindow, charge: float,
                          n_polar: int = 16, n_azimuth: int = 32,
                          octave_tol: float = 1e-6, max_octaves: int = 40,
                          step_ratio_limit: float = 0.01) -> np.ndarray:
    """Shift from the momentum derivative of the emission amplitude,

        dx^i = (1/(2 (2pi)^3)) int dOmega int k dk Im[ A*^0 dA^0/dp^i
                                                       - A*_vec . dA_vec/dp^i ],

    with central differences over the re-anchored trajectory family sharing
    one window.  The k integral climbs octaves until two consecutive
    octaves move the running total by less than octave_tol relative; a
    3-point Richardson ratio above step_ratio_limit (quadratic term
    contaminating the central difference) raises a step error.
    """
    center = family.center
    trajs = family.all()
    for tr in trajs:
        _require_covers_all_directions(tr, window)
    v_axis = center.velocity(0.0)
    dirs, wd = sphere_quadrature(n_polar, n_azimuth,
                                 axis=v_axis if v_axis @ v_axis > 0 else None)
    s_lo, s_hi = window.support
    span = s_hi - s_lo
    vmax = max(_max_speed(tr, tr.acc_start, tr.acc_end) for tr in trajs)

    total = np.zeros(3)
    rich_num = 0.0
    rich_den = 0.0
    k_edge = 2.0 * np.pi / span
    k_lo = 0.0
    small_streak = 0
    for octave in range(max_octaves):
        k_hi = k_edge * 2.0**octave
        ks, wk = _gauss_panels(_phase_edges(k_lo, k_hi, span, base_panels=4), _PANEL_ORDER)
        transforms = _taper_transforms(window, ks)
        t_rate = k_hi * (1.0 + vmax)
        wk_k = wk * ks
        contrib = np.zeros(3)
        for n, wdir in zip(dirs, wd):
            amps = np.stack([
                _radiative_amplitude_batch(tr, ks, n, charge, rate=t_rate)
                + _taper_amplitude_batch(tr, ks, n, window, charge, transforms)
                for tr in trajs
            ])  # (7, nk, 4)
            a0 = amps[0]
            for i in range(3):
                da = (amps[1 + i] - amps[4 + i]) / (2.0 * family.eps)
                im = np.imag(np.conj(a0[:, 0]) * da[:, 0]
                             - np.einsum("kj,kj->k", np.conj(a0[:, 1:]), da[:, 1:]))
                contrib[i] += wdir * (wk_k @ im) / _8PI3
                curv = amps[1 + i] + amps[4 + i] - 2.0 * a0
                diff = amps[1 + i] - amps[4 + i]
                rich_num += wdir * (wk_k @ np.linalg.norm(curv, axis=1))
                rich_den += wdir * (wk_k @ np.linalg.norm(diff, axis=1))
        total += contrib
        k_lo = k_hi
        if np.linalg.norm(contrib) < octave_tol * np.linalg.norm(total):
            small_streak += 1
            if octave >= 5 and small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise RuntimeError("amplitude-derivative shift failed to converge in k")

    ratio = rich_num / max(rich_den, 1e-300)
    if ratio > step_ratio_limit:
        raise ValueError(
            f"momentum step too large: quadratic-to-linear Richardson ratio "
            f"{ratio:.3e} exceeds {step_ratio_limit:.0e}"
        )
    return total

"""Emission amplitudes, mode functions, energy and probability accounting."""

import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy.optimize import brentq

from rrshift import (CutoffWindow, PotentialProfile, amplitude_classical,
                     amplitude_quantum, bundled_scenario, default_window,
                     emission_probability_reduced, integrate_trajectory, jacobi_basis,
                     kinematics, radiated_energy, shift_from_amplitudes, solve_mode_function,
                     sphere_quadrature, taper_amplitude, window_time_range)
from rrshift.semiclassical import (_8PI3, _PAIR_BLOCK, _PANEL_ORDER, _amplitudes, _cis,
                                   _direction_grid, _double_xi_probability, _k_panels,
                                   _max_speed, _octaves, _phase_edges, _phase_transform,
                                   _taper_transforms, _windowed_nodes, acceleration_xi_bounds)
from rrshift import dynamics, semiclassical, verify
from rrshift.dynamics import _DenseSolution
from rrshift.potentials import _shape_joins, eval_potential
from rrshift.shift import _gauss_panels
from rrshift.verify import hbar_convergence

CHARGE = 0.3
NVEC = np.array([0.3, 0.4, np.sqrt(1 - 0.25)])
BUNDLED = ["amplitude_shift", "collinear", "convergence", "energy", "oblique", "pulse_single",
           "rest_pulse", "spatial", "weak"]


@cache
def built(name):
    """A bundled scenario and its trajectory, built once per test session."""
    sc = bundled_scenario(name)
    return sc, sc.build()


def xi_root(traj, n, target):
    """The time at which xi(n, t) = target, by a scalar bracketed root solve:
    xi is strictly increasing (d xi/dt = 1 - n.v > 0), so an expanding
    bracket always terminates."""
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


def riemann_amplitude(traj, k, n, window, charge, num=1_000_000):
    """Brute-force uniform-xi Riemann sum over the window support."""
    n = np.asarray(n, dtype=float)
    lo, hi = window_time_range(traj, n, window)
    t = np.linspace(lo, hi, num)
    x = traj.position(t)
    v = traj.velocity(t)
    xi = t - x @ n
    xi_u = np.linspace(xi[0], xi[-1], num)
    t_u = np.interp(xi_u, xi, t)
    v_u = np.stack([np.interp(t_u, t, v[:, i]) for i in range(3)], axis=1)
    xidot = 1.0 - v_u @ n
    four = np.concatenate([np.ones((num, 1)), v_u], axis=1) / xidot[:, None]
    integrand = four * (window.chi(xi_u) * np.exp(1j * k * xi_u))[:, None]
    return -charge * np.trapezoid(integrand, xi_u, axis=0)


def radiative(traj, k, n):
    """A_rad at one k and direction: the first output of `_amplitudes`, on
    time panels for the rate |k| (1 + max speed)."""
    rate = abs(k) * (1.0 + _max_speed(traj))
    [(a_rad, _, _)] = _amplitudes(traj, np.array([[float(k)]]), np.asarray(n, dtype=float)[None],
                                  default_window(traj), CHARGE, rate)
    return a_rad[0]


def radiative_per_direction(traj, kp, n, charge, rate):
    """The radiative piece for one direction, sampling the trajectory anew:
    the spatial columns transformed and the time component formed as n.T.
    Also returns xi and the full four-column integrand, with its own time
    component (n.a) w / xd^2, for a dense oracle."""
    n = np.asarray(n, dtype=float)
    edges = _phase_edges(traj.acc_start, traj.acc_end, rate, base_panels=24)
    ts, w = _gauss_panels(edges, _PANEL_ORDER)
    kin = kinematics(traj, ts)
    xd = 1.0 - kin.v @ n
    na = kin.a @ n
    weights = np.column_stack([na, kin.a * xd[:, None] + na[:, None] * kin.v])
    weights *= (w / xd**2)[:, None]
    xi = ts - traj.position(ts) @ n
    tr = _phase_transform(kp, xi, weights[:, 1:])
    return (charge / (1j * kp.ravel()))[:, None] * np.column_stack([tr @ n, tr]), xi, weights


def taper_per_direction(traj, kp, n, window, charge):
    """The taper piece for one direction, with its own velocities and transforms."""
    n = np.asarray(n, dtype=float)
    v_in = traj.velocity(traj.acc_start)
    v_out = traj.velocity(0.0)
    w_in = np.concatenate([[1.0], v_in]) / (1.0 - n @ v_in)
    w_out = np.concatenate([[1.0], v_out]) / (1.0 - n @ v_out)
    t_left, t_right = _taper_transforms(window, kp)
    pref = charge / (1j * kp.ravel())
    return pref[:, None] * (np.outer(t_left, w_in) + np.outer(t_right, w_out))


def dense_transform(ks, xi, weights):
    """sum_t e^{i k xi_t} weights[t] through the full (nk, nt) phase matrix,
    its entries from cos and sin (test_cis_equals_the_complex_exponential)."""
    return _cis(np.outer(ks, xi)) @ weights


def pair_kernel(delta, k_max):
    """int_0^K k cos(k d) dk = (cos(Kd) - 1 + Kd sin(Kd)) / d^2 on a matrix of
    separations, with the small-argument series."""
    x = k_max * delta
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)  # keep the masked branch finite
    direct = (np.cos(xs) - 1.0 + xs * np.sin(xs)) / np.where(small, 1.0, delta) ** 2
    x2 = x * x
    series = k_max**2 * (0.5 - x2 / 8.0 + x2 * x2 / 144.0)
    return np.where(small, series, direct)


# ---------------------------------------------------------------- window


def test_window_plateau_and_support():
    w = CutoffWindow(xi_on=-2.0, xi_off=1.0, width=0.5)
    assert w.chi(-2.0) == 1.0 and w.chi(1.0) == 1.0 and w.chi(-0.3) == 1.0
    assert w.chi(w.support[0] - 0.1) == 0.0
    assert w.chi(w.support[1] + 0.1) == 0.0
    np.testing.assert_allclose(w.support, (-2.5, 1.5))


def test_window_taper_derivative():
    """chi_prime matches central differences through the taper."""
    w = CutoffWindow(xi_on=-2.0, xi_off=1.0, width=0.5)
    h = 1e-6
    for xi in np.linspace(-2.49, 1.49, 41):
        fd = (w.chi(xi + h) - w.chi(xi - h)) / (2 * h)
        assert abs(w.chi_prime(xi) - fd) < 1e-7


def test_window_coverage_check():
    w = CutoffWindow(xi_on=-2.0, xi_off=1.0, width=0.5)
    w.require_covers(-1.5, 0.5)  # fine
    with pytest.raises(ValueError, match="does not cover"):
        w.require_covers(-2.5, 0.0)


def test_uncovering_window_rejected(time_traj):
    small = CutoffWindow(xi_on=-0.5, xi_off=-0.2, width=0.1)
    with pytest.raises(ValueError, match="does not cover"):
        amplitude_classical(time_traj, 1.0, [0.0, 0.0, 1.0], small, CHARGE)


# ----------------------------------------------------- classical amplitude


def test_amplitude_matches_riemann_oracle(time_traj):
    """Oscillatory quadrature agrees with a 1e6-node uniform-xi Riemann sum."""
    w = default_window(time_traj)
    low = amplitude_classical(time_traj, 1.0, NVEC, w, CHARGE)
    floor = 2e-9 * np.max(np.abs(low))  # absolute quadrature floor
    for k in (3.0, 12.0, 40.0):
        got = amplitude_classical(time_traj, k, NVEC, w, CHARGE)
        ref = riemann_amplitude(time_traj, k, NVEC, w, CHARGE)
        tol = max(1e-8 * np.max(np.abs(got)), floor)
        assert np.max(np.abs(got - ref)) < tol


def test_amplitude_low_frequency_limit(time_traj):
    """k -> 0: the amplitude becomes the real window-weighted displacement."""
    w = default_window(time_traj)
    got = amplitude_classical(time_traj, 1e-9, NVEC, w, CHARGE)
    ref = riemann_amplitude(time_traj, 1e-9, NVEC, w, CHARGE)
    assert np.max(np.abs(got.imag)) < 1e-8 * np.max(np.abs(got))
    assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(got))


def test_amplitude_conjugate_symmetry(time_traj):
    """Real xi-space integrand: A(-k) is the conjugate of A(k)."""
    w = default_window(time_traj)
    plus = amplitude_classical(time_traj, 1.3, NVEC, w, CHARGE)
    minus = amplitude_classical(time_traj, -1.3, NVEC, w, CHARGE)
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-12 * np.max(np.abs(plus))


def test_amplitude_linear_in_charge(time_traj):
    w = default_window(time_traj)
    one = amplitude_classical(time_traj, 2.0, NVEC, w, CHARGE)
    two = amplitude_classical(time_traj, 2.0, NVEC, w, 2 * CHARGE)
    assert np.array_equal(two, 2 * one)


def test_free_amplitude_is_pure_window_artifact(free_traj):
    """Zero acceleration: no radiative part, and only the window phase moves."""
    w = default_window(free_traj)
    k = 1.7
    assert np.array_equal(radiative(free_traj, k, NVEC), np.zeros(4, dtype=complex))
    full = amplitude_classical(free_traj, k, NVEC, w, CHARGE)
    taper = taper_amplitude(free_traj, k, NVEC, w, CHARGE)
    assert np.max(np.abs(full - taper)) < 1e-9 * np.max(np.abs(full))
    # translating the window multiplies by a pure phase
    delta = 0.37
    moved = replace(w, xi_on=w.xi_on + delta, xi_off=w.xi_off + delta)
    shifted = amplitude_classical(free_traj, k, NVEC, moved, CHARGE)
    np.testing.assert_allclose(np.abs(shifted), np.abs(full), rtol=0,
                               atol=1e-12 * np.max(np.abs(full)))
    np.testing.assert_allclose(shifted * np.exp(-1j * k * delta), full, rtol=0,
                               atol=1e-10 * np.max(np.abs(full)))


def test_windowed_amplitude_splits(time_traj):
    """Windowed = radiative + taper once the plateau covers the acceleration."""
    w = default_window(time_traj)
    scale = None
    for k in (0.8, 3.0, 9.0):
        full = amplitude_classical(time_traj, k, NVEC, w, CHARGE)
        rad = radiative(time_traj, k, NVEC)
        taper = taper_amplitude(time_traj, k, NVEC, w, CHARGE)
        if scale is None:  # identical absolute floor at every k
            scale = max(np.max(np.abs(rad)), np.max(np.abs(taper)))
        assert np.max(np.abs(full - rad - taper)) < 1e-9 * scale


def test_radiative_amplitude_transverse(time_traj):
    """k_mu A^mu = 0 for the acceleration-supported piece."""
    for k in (0.9, 4.0):
        a = radiative(time_traj, k, NVEC)
        inner = a[0] - NVEC @ a[1:]
        assert abs(inner) < 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("name", ["time_traj", "spatial_traj"])
def test_samplers_match_per_direction_evaluation(name, request):
    """Sampling the trajectory once, and forming W once, for all directions
    changes no bit of A_rad or A_taper."""
    traj = request.getfixturevalue(name)
    window = default_window(traj)
    span = window.support[1] - window.support[0]
    v = traj.velocity(0.0)
    dirs, _ = sphere_quadrature(4, 8, axis=v)
    for k_lo, k_hi in list(_octaves(span))[:4:3]:  # the first and the fourth octave
        kp, _ = _k_panels(k_lo, k_hi, span)
        for rate in (float(np.max(np.abs(kp))) * (1.0 + _max_speed(traj)), 40.0):
            got = list(_amplitudes(traj, kp, dirs, window, CHARGE, rate))
            assert len(got) == len(dirs)
            for n, (a_rad, a_tap, da) in zip(dirs, got):
                assert np.array_equal(a_rad, radiative_per_direction(traj, kp, n, CHARGE, rate)[0])
                assert np.array_equal(a_tap, taper_per_direction(traj, kp, n, window, CHARGE))
                assert da.shape == (kp.size, 4, 0)


@pytest.mark.parametrize("name", ["amplitude_shift", "spatial"])
def test_amplitudes_with_a_basis_keep_the_split(name):
    """Differentiating along the Jacobi basis leaves A_tap unchanged bit for
    bit and A_rad to 1e-15 of its peak (its transform is a wider matmul, which
    may round differently), on the first, a middle and the last octave of the
    amplitude-derivative loop at 2 x 4 directions; dA/dp has one column per
    component of p_final."""
    sc, traj = built(name)
    window = sc.window(traj)
    basis = jacobi_basis(traj, 0.0)
    dirs, _ = _direction_grid(traj, 2, 4)
    span = window.support[1] - window.support[0]
    grids = [edges for _, edges in zip(range(8), _octaves(span))]
    for k_lo, k_hi in (grids[0], grids[4], grids[-1]):
        kp, _ = _k_panels(k_lo, k_hi, span)
        rate = float(np.max(np.abs(kp))) * (1.0 + _max_speed(traj))
        plain = _amplitudes(traj, kp, dirs, window, sc.charge, rate)
        tangent = _amplitudes(traj, kp, dirs, window, sc.charge, rate, basis)
        for (a_rad, a_tap, _), (b_rad, b_tap, da) in zip(plain, tangent, strict=True):
            assert np.array_equal(a_tap, b_tap)
            assert np.max(np.abs(a_rad - b_rad)) <= 1e-15 * np.max(np.abs(a_rad))
            assert da.shape == (kp.size, 4, 3)


def test_cis_equals_the_complex_exponential():
    """cos and sin written into one complex array equal np.exp(1j x) in both
    parts, for |x| up to 1e5 and at zero and subnormal phases: moving the
    phase factors to _cis changes no number (only the sign of a zero: sin(-0)
    is -0, while 1j * -0.0 has already lost it)."""
    rng = np.random.default_rng(7)
    for x in (np.linspace(-1e5, 1e5, 400_001), rng.uniform(-1e5, 1e5, 200_000),
              rng.normal(scale=30.0, size=(300, 301)), np.array([0.0, -0.0, 1e-300, -5e-324])):
        got, ref = _cis(x), np.exp(1j * x)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n_j", [1, 12, 13])
@pytest.mark.parametrize("n_p", [1, 2, 3, 7, 64, 101])
def test_phase_transform_matches_dense_oracle(n_p, n_j):
    """The block-split centers and mirrored offsets equal the dense e^{i k xi}
    product to 1e-13 of the peak, for square and non-square P (a short last
    block) and for even and odd J (a zero offset, kept once)."""
    xi, wx = _gauss_panels(np.linspace(-2.0, 3.0, 41), _PANEL_ORDER)
    weights = wx[:, None] * np.column_stack([np.exp(-xi**2), np.cos(3.0 * xi), xi])
    ks = _gauss_panels(np.linspace(0.0, 0.5 * n_p + 1.0, n_p + 1), n_j)[0].reshape(n_p, n_j)
    got = _phase_transform(ks, xi, weights)
    ref = dense_transform(ks.ravel(), xi, weights)
    assert got.shape == ref.shape == (n_p * n_j, 3)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


# octaves the energy loop (criterion 6, 16x32 directions) and the
# amplitude-derivative loop (criterion 8, 8x16; `spatial` at 2x4) climb before they stop
@pytest.mark.parametrize("name, octaves",
                         [("energy", 10), ("amplitude_shift", 8), ("spatial", 9)])
def test_factorized_transforms_match_dense_oracle(name, octaves):
    """On the first, a middle and the last octave of a real k grid, the
    panel-factorized transforms equal the dense e^{i k xi} matrix product to
    1e-13 of the global peak.  The radiative oracle transforms all four
    columns of the integrand, so its time component is checked against n.T
    of the spatial ones, on the time axis and on the z axis (`spatial`)."""
    sc = bundled_scenario(name)
    traj = sc.build()
    window = sc.window(traj)
    span = window.support[1] - window.support[0]
    vmax = _max_speed(traj)
    dirs, _ = sphere_quadrature(2, 4, axis=traj.velocity(0.0))
    grids = [edges for _, edges in zip(range(octaves), _octaves(span))]
    rad_err = tap_err = rad_peak = tap_peak = 0.0
    for k_lo, k_hi in (grids[0], grids[octaves // 2], grids[-1]):
        kp, _ = _k_panels(k_lo, k_hi, span)
        pref = (CHARGE / (1j * kp.ravel()))[:, None]
        rate = k_hi * (1.0 + vmax)
        for n, (got, _, _) in zip(dirs, _amplitudes(traj, kp, dirs, window, CHARGE, rate)):
            _, xi, weights = radiative_per_direction(traj, kp, n, CHARGE, rate)
            ref = pref * dense_transform(kp.ravel(), xi, weights)
            rad_err = max(rad_err, np.max(np.abs(got - ref)))
            rad_peak = max(rad_peak, np.max(np.abs(ref)))
        lo, hi = window.support
        for got, (a, b) in zip(_taper_transforms(window, kp),
                               ((lo, window.xi_on), (window.xi_off, hi))):
            rate = float(np.max(kp))
            xs, w = _gauss_panels(_phase_edges(a, b, rate, base_panels=24), _PANEL_ORDER)
            ref = dense_transform(kp.ravel(), xs, window.chi_prime(xs) * w)
            tap_err = max(tap_err, np.max(np.abs(got - ref)))
            tap_peak = max(tap_peak, np.max(np.abs(ref)))
    assert rad_err < 1e-13 * rad_peak
    assert tap_err < 1e-13 * tap_peak


@pytest.mark.parametrize("name", BUNDLED)
def test_acceleration_xi_bounds_are_the_interval_ends(name):
    """The two-point bounds equal the min/max of t -/+ |x(t)| over 513 samples."""
    _, traj = built(name)
    ts = np.linspace(traj.acc_start, traj.acc_end, 513)
    r = np.linalg.norm(traj.position(ts), axis=1)
    assert acceleration_xi_bounds(traj) == (float(np.min(ts - r)), float(np.max(ts + r)))


@pytest.mark.parametrize("name", BUNDLED)
def test_window_time_range_matches_root_oracle(name):
    """On an 8x16 direction grid the closed-form ends on the coasting lines
    equal the scalar root solves of xi(n, t) = support end to 1e-7, one
    direction at a time and as a stack."""
    sc, traj = built(name)
    window = sc.window(traj)
    dirs, _ = _direction_grid(traj, 8, 16)
    ref = np.array([[xi_root(traj, n, end) for end in window.support] for n in dirs])
    stacked = window_time_range(traj, dirs, window)
    assert stacked.shape == (len(dirs), 2)
    assert np.max(np.abs(stacked - ref)) < 1e-7
    for n, row in zip(dirs[::17], stacked[::17]):
        assert window_time_range(traj, n, window) == tuple(row)


def test_window_time_range_rejects_support_inside_the_image(time_traj):
    """A support that ends inside the acceleration xi-image, at either end,
    has no coasting-line solution and raises."""
    lo, hi = (float(x) for x in time_traj.xi(NVEC, [time_traj.acc_start, time_traj.acc_end]))
    for window in (CutoffWindow(lo - 1.0, hi - 0.3, 0.1), CutoffWindow(lo + 0.3, hi + 1.0, 0.1)):
        with pytest.raises(ValueError, match="does not reach past the acceleration xi-image"):
            window_time_range(time_traj, NVEC, window)
    window_time_range(time_traj, NVEC, CutoffWindow(lo - 0.1, hi, 0.1))  # ends past the image


@pytest.mark.parametrize("name", ["time_traj", "spatial_traj"])
def test_stacked_nodes_equal_one_direction_calls(name, request):
    """One trajectory sample on the concatenated nodes of a stack of
    directions gives, for each, exactly the nodes of its own call."""
    traj = request.getfixturevalue(name)
    window = default_window(traj)
    dirs, _ = _direction_grid(traj, 3, 4)
    stacked = list(_windowed_nodes(traj, dirs, window, 9.0))
    assert len(stacked) == len(dirs)
    for n, got in zip(dirs, stacked):
        [one] = _windowed_nodes(traj, n[None], window, 9.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, one))


# ------------------------------------------------------------- mode functions


def test_free_mode_is_plane_wave():
    """V == 0: phi(t) = exp(-i p0 t / hbar) to solver precision."""
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    hbar = 0.1
    mode = solve_mode_function(prof, [0.0, 0.1, 0.8], hbar, (-3.5, 0.2))
    ts = np.linspace(-3.3, 0.1, 57)
    vals = np.array([mode.modes(t)[0][0] for t in ts])
    exact = np.exp(-1j * mode.p0[0] * ts / hbar)
    assert np.max(np.abs(vals - exact)) < 1e-9


def test_mode_wronskian_constancy(time_profile):
    """The Wronskian stays at 2 p0 at the collocation nodes, 1e-8 relative."""
    mode = solve_mode_function(time_profile, [0.0, 0.1, 0.8], 0.05, (-3.5, 0.2))
    assert mode.wronskian_residual() < 1e-8
    np.testing.assert_allclose(mode.wronskian()[:, 0], 2 * mode.p0[0], rtol=1e-8)


def test_mode_sigma_identity(time_profile):
    """sigma_p(t)^2 = (p - V(t))^2 + m^2 pointwise."""
    from rrshift.potentials import eval_potential
    p = np.array([0.0, 0.1, 0.8])
    mode = solve_mode_function(time_profile, p, 0.1, (-3.5, 0.2))
    for t in np.linspace(-3.4, 0.1, 31):
        mech = p - eval_potential(time_profile, t)[1:]
        expected = mech @ mech + 1.0
        assert abs(mode.sigma(t)[0, 0] ** 2 - expected) < 1e-14 * expected


def test_mode_envelope_error_is_second_order(time_profile):
    """|phi|^2 deviation from p0/sigma shrinks ~4x when hbar halves."""
    p = np.array([0.0, 0.1, 0.8])
    devs = []
    for hbar in (0.1, 0.05, 0.025):
        mode = solve_mode_function(time_profile, p, hbar, (-3.5, 0.2))
        ts = np.linspace(-3.4, -0.1, 400)
        vals = np.array([mode.modes(t)[0][0] for t in ts])
        devs.append(np.max(np.abs(np.abs(vals) ** 2 * mode.sigma(ts)[0] / mode.p0[0] - 1.0)))
    for coarse, fine in zip(devs, devs[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_mode_stack_columns_match_single_solves(time_profile):
    """Six momenta solved as one stack: on a uniform grid of 4001 times each
    column is its own M = 1 solve to 1e-9, with its own Wronskian to 1e-8."""
    p = np.array([0.0, 0.1, 0.8])
    hbar = 0.05
    ns = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.6, 0.8], [1.0, 0.0, 0.0],
                   [-0.48, 0.6, -0.64]])
    stack = np.vstack([p, p - hbar * np.array([0.5, 1.3, 2.0, 3.1, 4.4])[:, None] * ns])
    modes = solve_mode_function(time_profile, stack, hbar, (-3.5, 0.2))
    assert np.array_equal(modes.p, stack)
    ts = np.linspace(-3.5, 0.2, 4001)
    phi, dphi = modes.modes(ts)
    assert phi.shape == dphi.shape == (ts.size, len(stack))
    for i, q in enumerate(stack):
        phi_one, dphi_one = solve_mode_function(time_profile, q, hbar, (-3.5, 0.2)).modes(ts)
        assert np.max(np.abs(phi[:, i] - phi_one[:, 0])) < 1e-9
        assert np.max(np.abs(dphi[:, i] - dphi_one[:, 0])) < 1e-9 * np.max(np.abs(dphi_one))
    assert modes.wronskian_residual() < 1e-8  # the worst column


def test_mode_momentum_is_a_vector_or_a_stack(time_profile):
    with pytest.raises(ValueError, match=r"shape \(3,\) or \(M, 3\)"):
        solve_mode_function(time_profile, [[[0.0, 0.1, 0.8]]], 0.1, (-3.0, 0.2))


def test_mode_panel_count_is_bounded(time_profile):
    """A tiny hbar asks for about 1e11 collocation panels: refused by count
    before the solve allocates anything."""
    with pytest.raises(ValueError, match=r"hbar=1e-12 need \S+ collocation panels, above"):
        solve_mode_function(time_profile, [0.0, 0.1, 0.8], 1e-12, (-3.0, 0.2))


# The stacked DOP853 solve that the collocated mode functions replaced, kept
# as their oracle: one 2M-component system stepped from the plane wave at
# acc_end back into the past, restarting at every join of the shape.
MODE_PROFILES = {
    "smoothstep7": PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3], x1=2.0, x2=1.0),
    "bump": bundled_scenario("pulse_single").profile,
    "double_bump": PotentialProfile(axis="time", v_past=np.zeros(4), x1=2.0, x2=1.0,
                                    shape="double_bump", amplitude=[0.0, 0.1, 0.05, 0.3]),
}


def dop853_mode_stack(profile, stack, hbar, t_lo, mass=1.0, rtol=1e-12):
    """(phi, dphi/dt) of each momentum in the stack on [t_lo, -x2], shape (N, 2M)."""
    m = len(stack)
    p0 = np.sqrt(np.einsum("ij,ij->i", stack, stack) + mass**2)
    h2 = hbar * hbar

    def rhs(t, y):  # y = (phi_1..phi_M, dphi_1..dphi_M)
        w = stack - eval_potential(profile, t)[1:]
        return np.concatenate([y[m:], -((np.einsum("ij,ij->i", w, w) + mass**2) / h2) * y[:m]])

    t_end = -profile.x2
    joins = [-profile.x1 + u * profile.width for u in (0.0, *_shape_joins(profile.shape))]
    wave = np.exp(-1j * p0 * t_end / hbar)
    return _DenseSolution(rhs, t_end, np.concatenate([wave, -1j * p0 / hbar * wave]), t_lo,
                          t_end, "oracle", joins=joins, rtol=rtol, atol=rtol)


def mode_test_stack(p, hbar):
    ns = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [-0.48, 0.6, -0.64]])
    return np.vstack([p, p - hbar * np.array([0.5, 2.0, 4.4])[:, None] * ns])


@pytest.mark.parametrize("hbar", [0.1, 0.05, 0.0125])
@pytest.mark.parametrize("shape", list(MODE_PROFILES))
def test_mode_stack_matches_dop853_oracle(shape, hbar):
    """Across the forcing and 0.3 into the past, every collocated column is
    the DOP853 oracle's (rtol 1e-13) to 1e-9 in phi, and in dphi/dt relative
    to max |dphi/dt|."""
    prof = MODE_PROFILES[shape]
    stack = mode_test_stack(np.array([0.0, 0.1, 0.8]), hbar)
    t_lo = -prof.x1 - 0.3
    modes = solve_mode_function(prof, stack, hbar, (t_lo, 0.2))
    ts = np.linspace(t_lo, -prof.x2, 2001)
    ref = dop853_mode_stack(prof, stack, hbar, t_lo)(ts)
    phi, dphi = modes.modes(ts)
    for i in range(len(stack)):
        assert np.max(np.abs(phi[:, i] - ref[:, i])) < 1e-9
        scale = np.max(np.abs(ref[:, len(stack) + i]))
        assert np.max(np.abs(dphi[:, i] - ref[:, len(stack) + i])) < 1e-9 * scale
    # every join is a panel cut, so each panel is analytic and its tail
    # sits at rounding level (about 2e-15), far below rtol; both are the
    # stack's worst column
    assert modes.tail < 1e-13 and modes.wronskian_residual() < 1e-11


@pytest.mark.parametrize("shape", list(MODE_PROFILES))
def test_mode_closed_forms_outside_the_forcing(shape):
    """For t >= -x2 phi is the plane wave exp(-i p0 t / hbar); for t <= -x1
    it is the pair of plane waves at sigma_in = sqrt((p - V_past)^2 + m^2)
    matched to (phi, dphi/dt) at -x1."""
    prof = MODE_PROFILES[shape]
    hbar = 0.05
    p = np.array([0.0, 0.1, 0.8])
    mode = solve_mode_function(prof, p, hbar, (-prof.x1 - 1.5, 0.2))
    [p0] = mode.p0
    late = np.linspace(-prof.x2, 0.2, 301)
    phi, dphi = (v[:, 0] for v in mode.modes(late))
    wave = np.exp(-1j * p0 * late / hbar)
    assert np.max(np.abs(phi - wave)) < 1e-13
    assert np.max(np.abs(dphi + 1j * p0 / hbar * wave)) < 1e-13 * p0 / hbar

    mech = p - prof.v_past[1:]
    sigma_in = np.sqrt(mech @ mech + 1.0)
    [phi_s], [dphi_s] = mode.modes(-prof.x1)
    fwd = 0.5 * (phi_s + 1j * hbar * dphi_s / sigma_in)
    back = 0.5 * (phi_s - 1j * hbar * dphi_s / sigma_in)
    early = np.linspace(-prof.x1 - 1.5, -prof.x1, 301)
    turn = np.exp(-1j * sigma_in * (early + prof.x1) / hbar)
    phi, dphi = (v[:, 0] for v in mode.modes(early))
    assert np.max(np.abs(phi - (fwd * turn + back / turn))) < 1e-12
    assert np.max(np.abs(dphi + 1j * sigma_in / hbar * (fwd * turn - back / turn))) < 1e-12 / hbar


def test_mode_collocation_fails_loudly_when_unresolved(time_profile, monkeypatch):
    """Degree-4 panels cannot meet rtol even after every halving: the solve
    raises and names the panel and its tail instead of returning."""
    monkeypatch.setattr(dynamics, "_CHEB_DEGREE", 4)
    with pytest.raises(RuntimeError, match=r"panel \d+ \[.*\] keeps a relative Chebyshev tail"):
        solve_mode_function(time_profile, [0.0, 0.1, 0.8], 0.05, (-3.5, 0.2))


def test_hbar_convergence_reaches_first_order_limit():
    """On `convergence`, halving hbar from 0.05 to 0.00625 brings every live
    component ratio to within 2% of 2 at the last step, the minimum ratio
    never falls, and every mode stack meets its Chebyshev tail bound."""
    out = hbar_convergence(bundled_scenario("convergence"), hbars=(0.05, 0.025, 0.0125, 0.00625))
    rows = [[r for r in row if r is not None] for row in out["component_ratios"]]
    assert all(abs(r - 2.0) < 0.04 for r in rows[-1])
    mins = [min(row) for row in rows]
    assert all(coarse <= fine for coarse, fine in zip(mins, mins[1:]))
    assert len(out["mode_tails"]) == len(out["mode_panels"]) == 4
    assert all(tail < 1e-11 for tail in out["mode_tails"])
    assert all(panels > 0 for panels in out["mode_panels"])


def test_hbar_convergence_computes_each_classical_amplitude_once(monkeypatch):
    """The classical amplitude does not depend on hbar: three hbar values
    make 5 calls, one per (k, n) sample."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return amplitude_classical(*args, **kwargs)

    monkeypatch.setattr(verify, "amplitude_classical", counting)
    out = hbar_convergence(bundled_scenario("convergence"), hbars=(0.1, 0.05, 0.025))
    assert len(calls) == len(out["samples"]) == 5


def test_mode_stack_pair_mismatch(time_traj):
    """The stack must hold p and then P = p - hbar k n, one per sample."""
    w = default_window(time_traj)
    n = [[0.0, 0.0, 1.0]]
    wrong = solve_mode_function(time_traj.profile, [[0.0, 0.1, 0.8], [0.0, 0.1, 0.75]], 0.1,
                                (-9.0, 1.5))
    with pytest.raises(ValueError, match="mismatch"):
        amplitude_quantum(time_traj, w, wrong, [1.0], n, CHARGE)
    alone = solve_mode_function(time_traj.profile, [0.0, 0.1, 0.8], 0.1, (-9.0, 1.5))
    with pytest.raises(ValueError, match="one P per"):
        amplitude_quantum(time_traj, w, alone, [1.0], n, CHARGE)


def test_phase_product_drift_is_first_order(time_traj):
    """arg(phi_P* phi_p) + k n.x(t) drifts O(hbar) over the acceleration."""
    prof = time_traj.profile
    p = np.asarray(time_traj.p_final, dtype=float)
    k, n = 1.2, np.array([0.0, 0.6, 0.8])
    drifts = []
    for hbar in (0.1, 0.05, 0.025):
        big_p = p - hbar * k * n
        mode_p = solve_mode_function(prof, p, hbar, (-3.5, 0.2))
        mode_P = solve_mode_function(prof, big_p, hbar, (-3.5, 0.2))
        ts = np.linspace(-3.0, -0.5, 400)
        vals_p = np.array([mode_p.modes(t)[0][0] for t in ts])
        vals_P = np.array([mode_P.modes(t)[0][0] for t in ts])
        xs = time_traj.position(ts)
        phase = np.unwrap(np.angle(np.conj(vals_P) * vals_p)) + k * (xs @ n)
        drifts.append(np.max(phase) - np.min(phase))
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 1.6 < coarse / fine < 2.6


def test_free_quantum_amplitude_matches_shifted_window_transform():
    """V == 0: the quantum amplitude is the classical one at a shifted frequency."""
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    p = np.array([0.0, 0.1, 0.8])
    traj = integrate_trajectory(prof, p, 1.0)
    w = default_window(traj)
    hbar, k = 0.1, 1.7
    n = np.array([0.6, 0.0, 0.8])
    p0 = np.sqrt(p @ p + 1.0)
    big_p = p - hbar * k * n
    big_p0 = np.sqrt(big_p @ big_p + 1.0)
    xidot = 1.0 - n @ (p / p0)
    k_eff = (k + (big_p0 - p0) / hbar) / xidot
    lo, hi = window_time_range(traj, n, w)
    span = (lo - 0.1, hi + 0.1)
    modes = solve_mode_function(prof, [p, big_p], hbar, span)
    [quantum] = amplitude_quantum(traj, w, modes, [k], [n], CHARGE)
    shifted = amplitude_classical(traj, k_eff, n, w, CHARGE)
    scale = np.max(np.abs(shifted))
    assert np.max(np.abs(quantum[1:] - shifted[1:])) < 1e-9 * scale
    assert abs(quantum[0] - shifted[0] * (p0 + big_p0) / (2 * p0)) < 1e-9 * scale
    # at fixed k the difference from the classical amplitude is O(hbar)
    classical = amplitude_classical(traj, k, n, w, CHARGE)
    errs = []
    for hb in (0.1, 0.05):
        modes = solve_mode_function(prof, [p, p - hb * k * n], hb, span)
        errs.append(np.max(np.abs(amplitude_quantum(traj, w, modes, [k], [n], CHARGE)[0]
                                  - classical)))
    assert 1.6 < errs[0] / errs[1] < 2.4


# ------------------------------------------------- energy and probability


def test_radiated_energy_scales_as_charge_squared():
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.25], x1=2.0, x2=1.0)
    traj = integrate_trajectory(prof, [0.0, 0.0, 0.35], 1.0)
    w = default_window(traj, pad_fraction=1.5, width_fraction=1.0)
    one = radiated_energy(traj, w, CHARGE, n_polar=4, n_azimuth=8)
    two = radiated_energy(traj, w, 2 * CHARGE, n_polar=4, n_azimuth=8)
    assert one.physical > 0
    assert one.k_max > 0 and one.octaves > 0
    assert abs(two.physical - 4 * one.physical) < 1e-13 * one.physical


def test_emission_probability_two_pulse_additivity():
    """Well-separated identical pulses double the probability, within 2%."""
    single_prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0],
                                   x1=5.0, x2=1.0, shape="bump",
                                   amplitude=[0.0, 0.25, 0.0, 0.0])
    double_prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0],
                                   x1=17.0, x2=1.0, shape="double_bump",
                                   amplitude=[0.0, 0.25, 0.0, 0.0])
    p = [0.0, 0.0, 0.3]
    single = integrate_trajectory(single_prof, p, 1.0)
    double = integrate_trajectory(double_prof, p, 1.0)
    rep_s = emission_probability_reduced(single, default_window(single),
                                         n_polar=4, n_azimuth=8, k_max=8.0)
    rep_d = emission_probability_reduced(double, default_window(double),
                                         n_polar=4, n_azimuth=8, k_max=8.0)
    # the two evaluation forms agree and the physical part is positive
    assert abs(rep_s.difference) < 1e-8 * abs(rep_s.assembled)
    assert rep_s.physical > 0
    assert abs(rep_d.physical / rep_s.physical - 2.0) < 0.04


def test_double_xi_matches_pair_kernel_oracle():
    """The angle-addition kernel with the rank-4 current contraction equals
    the nt x nt pair-kernel form to 1e-13; the diagonal of every direction
    takes the coincident-pair limit."""
    sc = bundled_scenario("pulse_single")
    traj = sc.build()
    window = sc.window(traj)
    k_max = 12.0
    dirs, wd = _direction_grid(traj, 4, 8)
    ref = 0.0
    for n, wdir in zip(dirs, wd):
        [(xi, gate, u)] = _windowed_nodes(traj, n[None], window, k_max)
        c_mink = np.outer(u[:, 0], u[:, 0]) - u[:, 1:] @ u[:, 1:].T
        kern = pair_kernel(xi[:, None] - xi[None, :], k_max)
        ref += wdir * (-(gate @ (c_mink * kern) @ gate)) / _8PI3
    got = _double_xi_probability(traj, window, k_max, dirs, wd)
    assert abs(got - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize("k_max, keep", [(20.0, None), (12.0, 250), (12.0, 50)])
def test_double_xi_blocks_match_pair_kernel_oracle(k_max, keep, monkeypatch):
    """Node counts that are not a multiple of the block size (k_max 20, and
    the first 250 nodes of each direction) and fewer nodes than one block
    (the first 50): partial and single blocks of the upper-triangle kernel
    equal the nt x nt pair-kernel form to 1e-13."""
    sc, traj = built("pulse_single")
    window = sc.window(traj)
    full_nodes = semiclassical._windowed_nodes

    def nodes(*args):
        return ((xi[:keep], gate[:keep], u[:keep]) for xi, gate, u in full_nodes(*args))

    monkeypatch.setattr(semiclassical, "_windowed_nodes", nodes)
    dirs, wd = _direction_grid(traj, 4, 8)
    ref = 0.0
    counts = set()
    for (xi, gate, u), wdir in zip(nodes(traj, dirs, window, k_max), wd):
        counts.add(xi.size)
        c_mink = np.outer(u[:, 0], u[:, 0]) - u[:, 1:] @ u[:, 1:].T
        kern = pair_kernel(xi[:, None] - xi[None, :], k_max)
        ref += wdir * (-(gate @ (c_mink * kern) @ gate)) / _8PI3
    if keep == 50:
        assert max(counts) < _PAIR_BLOCK
    else:
        assert all(c > _PAIR_BLOCK for c in counts) and any(c % _PAIR_BLOCK for c in counts)
    got = _double_xi_probability(traj, window, k_max, dirs, wd)
    assert abs(got - ref) < 1e-13 * abs(ref)


def test_double_xi_close_pairs_across_a_block_edge(monkeypatch):
    """Nodes clustered within |K d| < 1e-2 across the first block edge, one
    pair of them equal: the close pairs and the coincident one off the
    diagonal, in the off-diagonal block, equal the nt x nt pair-kernel form
    to 1e-13, and no 0/0 on a diagonal or at the equal pair raises a
    RuntimeWarning."""
    sc, traj = built("pulse_single")
    window = sc.window(traj)
    k_max = 12.0
    full_nodes = semiclassical._windowed_nodes
    edge = _PAIR_BLOCK

    def nodes(*args):
        for xi, gate, u in full_nodes(*args):
            xi = xi.copy()
            xi[edge - 8:edge + 8] = xi[edge] + np.linspace(-4e-3, 4e-3, 16) / k_max
            xi[edge + 4] = xi[edge - 4]
            yield xi, gate, u

    monkeypatch.setattr(semiclassical, "_windowed_nodes", nodes)
    dirs, wd = _direction_grid(traj, 2, 4)
    ref = 0.0
    for (xi, gate, u), wdir in zip(nodes(traj, dirs, window, k_max), wd):
        cross = k_max * (xi[:edge, None] - xi[None, edge:])
        assert np.sum(np.abs(cross) < 1e-2) >= 64 and np.sum(cross == 0.0) == 1
        c_mink = np.outer(u[:, 0], u[:, 0]) - u[:, 1:] @ u[:, 1:].T
        kern = pair_kernel(xi[:, None] - xi[None, :], k_max)
        ref += wdir * (-(gate @ (c_mink * kern) @ gate)) / _8PI3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _double_xi_probability(traj, window, k_max, dirs, wd)
    assert abs(got - ref) < 1e-13 * abs(ref)


@pytest.mark.parametrize("sep", [1.2e-2, 3e-2, 0.1, 0.5, 0.0])
def test_double_xi_kernel_is_accurate_at_small_separations(sep, monkeypatch):
    """Two nodes near K xi = 100, a separation x = sep apart (0: an exact
    coincidence), carrying the null currents (1, e_x) and (1, e_y), so the
    diagonal cancels and the pair alone sets the sum: it equals a long-double
    evaluation of the half-angle kernel 2 s (x c - s) / x^2, s = sin(x/2)
    and c = cos(x/2), to 1e-14.  Evaluated as cos x - 1 + x sin x, the
    kernel loses up to about 2e-12 of itself at these x to the cancellation
    in cos x - 1."""
    k_max = 12.0
    xi = (100.0 + np.array([0.0, sep])) / k_max
    gate = np.array([0.7, 1.3])
    u = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    monkeypatch.setattr(semiclassical, "_windowed_nodes", lambda *args: iter([(xi, gate, u)]))
    got = _double_xi_probability(None, None, k_max, np.zeros((1, 3)), np.ones(1))

    kx = (k_max * xi).astype(np.longdouble)  # the nodes' K xi, then long double throughout
    x = kx[:, None] - kx[None, :]
    xs = np.where(x == 0.0, 1.0, x)
    s, c = np.sin(xs / 2), np.cos(xs / 2)
    kern = k_max**2 * np.where(x == 0.0, 0.5, 2 * s * (xs * c - s) / xs**2)
    ul = u.astype(np.longdouble)
    c_mink = np.outer(ul[:, 0], ul[:, 0]) - ul[:, 1:] @ ul[:, 1:].T
    ref = -(gate @ (c_mink * kern) @ gate) / _8PI3
    assert abs(sep - float(x[1, 0])) < 1e-12 and abs(float(c_mink[0, 1])) == 1.0
    assert abs(got - ref) < 1e-14 * abs(ref)


@pytest.mark.parametrize("k_max", [-1.0, 0.0, np.nan, np.inf])
def test_emission_probability_rejects_bad_k_max_up_front(k_max):
    """A k_max that is not finite and positive raises a ValueError that names
    it, instead of a silent report, a division by zero or a panel-count
    error."""
    sc, traj = built("pulse_single")
    with pytest.raises(ValueError, match="^k_max must be finite and positive"):
        emission_probability_reduced(traj, sc.window(traj), n_polar=2, n_azimuth=4, k_max=k_max)


def test_amplitude_shift_vanishes_without_acceleration():
    """Zero acceleration: the amplitude-derivative route returns ~0."""
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    traj = integrate_trajectory(prof, [0.0, 0.0, 0.35], 1.0)
    w = default_window(traj, pad_fraction=1.5, width_fraction=1.0)
    shift = shift_from_amplitudes(traj, jacobi_basis(traj, 0.0), w, CHARGE, n_polar=4, n_azimuth=8)
    assert np.max(np.abs(shift)) < 1e-8


def _central_difference_tangents(family, eps):
    """A stand-in for `_amplitudes` that differences the amplitudes
    a_rad + a_tap of the trajectories re-anchored at p_final + eps e_i and
    - eps e_i (family, in that order) centrally, at the center's time rate
    and on the same window."""
    def amplitudes(traj, ks, dirs, window, charge, rate, basis=None):
        streams = [_amplitudes(tr, ks, dirs, window, charge, rate) for tr in (traj, *family)]
        for outs in zip(*streams):
            amps = [a_rad + a_tap for a_rad, a_tap, _ in outs]
            yield outs[0][0], outs[0][1], np.stack([(amps[1 + i] - amps[4 + i]) / (2.0 * eps)
                                                    for i in range(3)], axis=-1)
    return amplitudes


def tangents_28_columns(traj, basis, ks, dirs, transforms, charge):
    """A = A_rad + A_taper and dA/dp of `_amplitudes` with a basis, with the
    time components of R, dR and R dxi transformed as columns of their own
    (4 + 12 + 12), from their own formulas."""
    rate = float(np.max(np.abs(ks))) * (1.0 + _max_speed(traj))
    ts, w = _gauss_panels(_phase_edges(traj.acc_start, traj.acc_end, rate, base_panels=24),
                          _PANEL_ORDER)
    kin = kinematics(traj, np.concatenate([ts, [traj.acc_start, traj.acc_end]]))
    X, K = basis(kin.t)
    dv, da = dynamics._flow_tangent(traj.profile, kin, X, K)
    u_ends = np.column_stack([np.ones(2), kin.v[-2:]])
    du_ends = np.concatenate([np.zeros((2, 1, 3)), dv[-2:]], axis=1)
    v, a, x, X, dv, da = kin.v[:-2], kin.a[:-2], kin.x[:-2], X[:-2], dv[:-2], da[:-2]
    pref = (charge / (1j * ks.ravel()))[:, None]
    for n in dirs:
        xd, na = 1.0 - v @ n, a @ n
        dxd, dna = -n @ dv, n @ da
        R = np.column_stack([na, a * xd[:, None] + na[:, None] * v]) * (w / xd**2)[:, None]
        dR = np.concatenate([dna[:, None], da * xd[:, None, None] + a[:, :, None] * dxd[:, None]
                             + v[:, :, None] * dna[:, None] + na[:, None, None] * dv], axis=1)
        dR = dR * (w / xd**2)[:, None, None] - 2.0 * R[:, :, None] * (dxd / xd[:, None])[:, None]
        tr = _phase_transform(ks, ts - x @ n, np.hstack(
            [R, dR.reshape(-1, 12), (R[:, :, None] * (-n @ X)[:, None]).reshape(-1, 12)]))
        xd_ends = 1.0 - u_ends[:, 1:] @ n
        dW = du_ends + u_ends[:, :, None] * (n @ du_ends[:, 1:] / xd_ends[:, None])[:, None]
        W = np.hstack([u_ends, dW.reshape(2, 12)]) / xd_ends[:, None]
        full = tr[:, :16] + np.outer(transforms[0], W[0]) + np.outer(transforms[1], W[1])
        yield pref * full[:, :4], (pref * full[:, 4:] + charge * tr[:, 16:]).reshape(-1, 4, 3)


@pytest.mark.parametrize("name", ["amplitude_shift", "spatial"])
def test_transverse_tangents_match_28_column_transform(name):
    """Time components formed as n.T of the spatial ones (21 columns) equal
    the 28-column transform to 1e-13 of the global peak, for A and for dA/dp,
    on the first, a middle and the last octave the amplitude-derivative loop
    climbs at 2 x 4 directions."""
    sc, traj = built(name)
    window = sc.window(traj)
    basis = jacobi_basis(traj, 0.0)
    dirs, _ = _direction_grid(traj, 2, 4)
    span = window.support[1] - window.support[0]
    grids = [edges for _, edges in zip(range(8), _octaves(span))]
    err, peak = np.zeros(2), np.zeros(2)  # A, then dA/dp
    for k_lo, k_hi in (grids[0], grids[4], grids[-1]):
        kp, _ = _k_panels(k_lo, k_hi, span)
        rate = float(np.max(np.abs(kp))) * (1.0 + _max_speed(traj))
        pairs = list(zip(((a_rad + a_tap, da) for a_rad, a_tap, da
                          in _amplitudes(traj, kp, dirs, window, sc.charge, rate, basis)),
                         tangents_28_columns(traj, basis, kp, dirs, _taper_transforms(window, kp),
                                             sc.charge)))
        assert len(pairs) == len(dirs)
        for got, ref in pairs:
            for i in range(2):
                assert got[i].shape == ref[i].shape
                err[i] = max(err[i], np.max(np.abs(got[i] - ref[i])))
                peak[i] = max(peak[i], np.max(np.abs(ref[i])))
    assert np.all(err < 1e-13 * peak)


@pytest.mark.parametrize("name", ["amplitude_shift", "spatial"])
def test_amplitude_shift_matches_central_differences(name, monkeypatch):
    """The exact amplitude derivative and central differences over six
    re-anchored trajectories (step 1e-4 |p_final|) give one shift to 1e-6,
    on the time axis and on the z axis, at 2 x 4 directions."""
    sc = bundled_scenario(name)
    traj = sc.build()
    window = sc.window(traj)
    basis = jacobi_basis(traj, 0.0)
    grid = dict(n_polar=2, n_azimuth=4)
    exact = shift_from_amplitudes(traj, basis, window, sc.charge, **grid)
    eps = 1e-4 * float(np.linalg.norm(sc.p_final))
    family = [integrate_trajectory(sc.profile, sc.p_final + sign * eps * e, sc.mass, sc.tol)
              for sign in (1.0, -1.0) for e in np.eye(3)]
    monkeypatch.setattr(semiclassical, "_amplitudes", _central_difference_tangents(family, eps))
    differenced = shift_from_amplitudes(traj, basis, window, sc.charge, **grid)
    assert np.linalg.norm(exact - differenced) < 1e-6 * np.linalg.norm(differenced)


def test_amplitude_shift_rejects_a_foreign_basis(time_traj, free_traj):
    with pytest.raises(ValueError, match="basis belongs to a different trajectory"):
        shift_from_amplitudes(time_traj, jacobi_basis(free_traj, 0.0), default_window(time_traj),
                              CHARGE, n_polar=2, n_azimuth=4)


# ------------------------------------------------- octaves and stop rules


def test_radiated_energy_octave_budget():
    """A budget of exactly the reported octave count changes nothing; one
    fewer octave fails loudly."""
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.25], x1=2.0, x2=1.0)
    traj = integrate_trajectory(prof, [0.0, 0.0, 0.35], 1.0)
    w = default_window(traj, pad_fraction=1.5, width_fraction=1.0)
    grid = dict(n_polar=2, n_azimuth=4, rel_floor=1e-6)
    rep = radiated_energy(traj, w, CHARGE, **grid)
    assert radiated_energy(traj, w, CHARGE, max_octaves=rep.octaves, **grid) == rep
    match = (rf"failed to decay below the floor: {rep.octaves - 1} octaves up to "
             rf"k_hi = \S+, last octave peak / global peak = \S+ above rel_floor 1\.0e-06")
    with pytest.raises(RuntimeError, match=match):
        radiated_energy(traj, w, CHARGE, max_octaves=rep.octaves - 1, **grid)


def test_amplitude_shift_stop_rules_fail_loudly():
    """Five octaves cannot satisfy the two-octave streak after octave 5."""
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    traj = integrate_trajectory(prof, [0.0, 0.0, 0.35], 1.0)
    w = default_window(traj, pad_fraction=1.5, width_fraction=1.0)
    match = (r"failed to converge in k: 5 octaves up to k_hi = \S+, "
             r"last contribution / total = \S+ against octave_tol 1\.0e-06")
    with pytest.raises(RuntimeError, match=match):
        shift_from_amplitudes(traj, jacobi_basis(traj, 0.0), w, CHARGE, n_polar=2, n_azimuth=4,
                              max_octaves=5)


def test_probability_cut_below_first_octave(time_traj):
    """k_max under 2pi/span is one clipped octave: the cut is kept as given
    and the Parseval pair still agrees."""
    w = default_window(time_traj)
    lo, hi = w.support
    k_max = 0.5 * 2.0 * np.pi / (hi - lo)
    rep = emission_probability_reduced(time_traj, w, n_polar=2, n_azimuth=4, k_max=k_max)
    assert rep.k_max == k_max
    assert abs(rep.difference) < 1e-8 * abs(rep.assembled)

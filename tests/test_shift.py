"""Position-shift routes: angular integrals, route equalities, symmetries."""

import numpy as np
import pytest
from test_variational import fundamental_oracle

from rrshift import (angular_integrals, angular_integrals_quadrature, bundled_scenario,
                     classical_shift_direct, classical_shift_green, compare_routes,
                     default_window, hamiltonian_hessian, integrate_trajectory, jacobi_basis,
                     kinematics, ld_coordinate_force, scenario_from_dict, shift_from_amplitudes,
                     shift_quantum_closed, shift_quantum_quadrature, sphere_quadrature)
from rrshift.shift import (_frame_grid, _gauss_panels, _leggauss, _polar_frames,
                           _support_integral)

ALPHA = 0.0071619724391352765  # e = 0.3
BUNDLED = ("amplitude_shift", "collinear", "convergence", "energy", "oblique",
           "pulse_single", "rest_pulse", "spatial", "weak")


def test_sphere_quadrature_polynomial_moments():
    """Exact low-order moments: 4pi, zero mean direction, isotropic second moment."""
    dirs, weights = sphere_quadrature(16, 32)
    assert abs(np.sum(weights) - 4 * np.pi) < 1e-12
    np.testing.assert_allclose(weights @ dirs, np.zeros(3), rtol=0, atol=1e-13)
    second = (weights[:, None, None] * dirs[:, :, None] * dirs[:, None, :]).sum(axis=0)
    np.testing.assert_allclose(second, (4 * np.pi / 3) * np.eye(3), rtol=0, atol=1e-12)


def test_gauss_legendre_rules_are_cached_read_only():
    """One shared rule per order: repeated calls agree, and no caller can
    write into the shared arrays."""
    x, w = _leggauss(12)
    assert _leggauss(12)[0] is x
    x_ref, w_ref = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    nodes, weights = _gauss_panels([0.0, 1.0, 3.0], 12)
    assert np.array_equal(_gauss_panels([0.0, 1.0, 3.0], 12)[0], nodes)
    nodes[0] = weights[0] = -1.0  # the composite arrays are the caller's own
    assert np.array_equal(_leggauss(12)[0], x_ref)


def test_sphere_quadrature_axis_alignment():
    """Polar-axis choice never changes integrals of smooth functions."""
    axis = np.array([0.3, -0.5, 0.81])
    dirs_a, w_a = sphere_quadrature(24, 48, axis=axis)
    dirs_b, w_b = sphere_quadrature(24, 48)
    f = lambda dirs: np.exp(dirs @ np.array([0.2, 0.1, -0.4]))
    assert abs(w_a @ f(dirs_a) - w_b @ f(dirs_b)) < 1e-10


def test_angular_integrals_at_rest():
    """v = 0: I0 = 4pi, odd moments vanish, I2 is isotropic."""
    ints = angular_integrals([0.0, 0.0, 0.0])
    assert abs(ints.i0 - 4 * np.pi) < 1e-14
    assert np.array_equal(ints.i1, np.zeros(3))
    np.testing.assert_allclose(ints.i2, (4 * np.pi / 3) * np.eye(3), rtol=1e-14)
    assert np.array_equal(ints.i3, np.zeros((3, 3, 3)))


def test_angular_integrals_known_value():
    """I0 at v = 0.6 x-hat is 4pi gamma^2 = 4pi / 0.64."""
    ints = angular_integrals([0.6, 0.0, 0.0])
    assert abs(ints.i0 - 4 * np.pi / 0.64) < 1e-13 * ints.i0


def test_angular_integrals_match_quadrature():
    """Closed forms equal the product angular quadrature to 1e-10."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.9) / np.linalg.norm(v)
        closed = angular_integrals(v)
        quad = angular_integrals_quadrature(v, 64, 128)
        for name in ("i0", "i1", "i2", "i3"):
            a, b = getattr(closed, name), getattr(quad, name)
            scale = max(np.max(np.abs(a)), 1.0)
            assert np.max(np.abs(np.asarray(a) - b)) < 1e-10 * scale


def test_angular_integral_derivative_ladder():
    """Each moment is proportional to the velocity gradient of the previous one."""
    rng = np.random.default_rng(29)
    v = rng.normal(size=3)
    v *= 0.55 / np.linalg.norm(v)
    h = 1e-5
    base = angular_integrals(v)
    for j in range(3):
        step = np.eye(3)[j] * h
        plus, minus = angular_integrals(v + step), angular_integrals(v - step)
        d_i0 = (plus.i0 - minus.i0) / (2 * h)
        d_i1 = (np.asarray(plus.i1) - minus.i1) / (2 * h)
        d_i2 = (np.asarray(plus.i2) - minus.i2) / (2 * h)
        assert abs(2 * base.i1[j] - d_i0) < 1e-7 * max(abs(d_i0), 1.0)
        assert np.max(np.abs(3 * base.i2[:, j] - d_i1)) < 1e-7 * max(np.max(np.abs(d_i1)), 1.0)
        assert np.max(np.abs(4 * base.i3[:, :, j] - d_i2)) < 1e-7 * max(np.max(np.abs(d_i2)), 1.0)


def test_zero_acceleration_gives_zero_shift(free_traj):
    assert np.array_equal(classical_shift_direct(free_traj, ALPHA), np.zeros(3))
    assert np.array_equal(classical_shift_green(free_traj, ALPHA), np.zeros(3))
    assert np.array_equal(shift_quantum_closed(free_traj, alpha_c=ALPHA), np.zeros(3))


def test_collinear_shift_is_longitudinal(collinear_traj):
    """Axial symmetry: transverse components below 1e-10 of the shift norm."""
    shifts = [
        classical_shift_direct(collinear_traj, ALPHA),
        classical_shift_green(collinear_traj, ALPHA),
        shift_quantum_closed(collinear_traj, alpha_c=ALPHA),
        shift_quantum_quadrature(collinear_traj, alpha_c=ALPHA),
    ]
    for shift in shifts:
        norm = np.linalg.norm(shift)
        assert norm > 0
        assert np.max(np.abs(shift[:2])) < 1e-10 * norm


def test_bracket_and_greens_forms_agree(time_traj):
    """The closed bracket integrand differs from route b's Green's-function
    integrand only by an exact integration by parts."""
    bracket = shift_quantum_closed(time_traj, alpha_c=ALPHA)
    greens = classical_shift_green(time_traj, ALPHA)
    assert np.max(np.abs(bracket - greens)) < 1e-8 * np.linalg.norm(greens)


def green_fresh(traj, alpha_c, n_nodes=96):
    """Route b without the swap identity: dx^i_(j)(0; s) at every
    Gauss-Legendre node s of the forcing support, the position rows of
    Phi(s)^-1 (0, e_j) with Phi the DOP853 fundamental matrix, Phi(0) = I."""
    phi = fundamental_oracle(traj)
    ss, ws = _gauss_panels([traj.acc_start, *traj.breakpoints, traj.acc_end], n_nodes)
    X0 = np.linalg.solve(phi(ss), np.eye(6)[:, 3:])[:, :3]  # dx^i_(j)(0; s)
    return np.einsum("n,nij,nj->i", ws, X0, ld_coordinate_force(traj, ss, alpha_c))


def test_green_swap_equals_fresh(time_traj):
    """Reusing anchored kick responses (swap) matches per-node solves (fresh)."""
    swap = classical_shift_green(time_traj, ALPHA)
    fresh = green_fresh(time_traj, ALPHA)
    assert np.max(np.abs(swap - fresh)) < 1e-6 * np.linalg.norm(swap)


def test_direct_equals_green(time_traj):
    direct = classical_shift_direct(time_traj, ALPHA)
    green = classical_shift_green(time_traj, ALPHA)
    assert np.max(np.abs(direct - green)) < 1e-6 * np.linalg.norm(green)


def test_quadrature_route_converged(time_traj):
    """64x128 nodes sit within 1e-6 of closed form; doubling moves < 1e-8."""
    closed = shift_quantum_closed(time_traj, alpha_c=ALPHA)
    coarse = shift_quantum_quadrature(time_traj, alpha_c=ALPHA, n_polar=64,
                                      n_azimuth=128)
    fine = shift_quantum_quadrature(time_traj, alpha_c=ALPHA, n_polar=128,
                                    n_azimuth=256)
    scale = np.linalg.norm(closed)
    assert np.max(np.abs(coarse - closed)) < 1e-6 * scale
    assert np.max(np.abs(fine - coarse)) < 1e-8 * scale


@pytest.mark.parametrize("name", ["spatial", "rest_pulse"])
def test_closed_and_quadrature_forms_agree(name):
    """Route c integrated over time on step-cut panels matches route c' to
    2e-12 relative on a spatial axis and through a velocity zero."""
    sc = bundled_scenario(name)
    traj = sc.build()
    basis = jacobi_basis(traj, 0.0)
    closed = shift_quantum_closed(traj, basis, sc.alpha_c, epsrel=sc.epsrel)
    quadrature = shift_quantum_quadrature(traj, basis, sc.alpha_c, n_polar=sc.n_polar,
                                          n_azimuth=sc.n_azimuth, epsrel=sc.epsrel)
    assert np.linalg.norm(closed - quadrature) <= 2e-12 * np.linalg.norm(quadrature)


def test_support_integral_is_exact_on_polynomials(time_traj):
    """16 points per panel integrate a degree-9 polynomial exactly."""
    lo, hi = time_traj.acc_start, time_traj.acc_end
    value = _support_integral(lambda ts: np.column_stack([ts**9, np.ones_like(ts)]), time_traj)
    np.testing.assert_allclose(value, [(hi**10 - lo**10) / 10, hi - lo], rtol=1e-14)


def test_support_integral_raises_on_kink(time_traj):
    """A kink inside a panel keeps the 8- and 16-point sums apart: an error,
    not a value."""
    kink = time_traj.acc_start + 0.3137 * time_traj.acc_duration
    assert kink not in time_traj.ts and kink not in time_traj.breakpoints
    with pytest.raises(RuntimeError, match="not converged"):
        _support_integral(lambda ts: np.abs(ts - kink), time_traj)


def test_unconverged_quadrature_is_reported(time_traj):
    """An epsrel below rounding fails every route with a time quadrature; the
    report records the errors and does not pass."""
    rep = compare_routes(time_traj, ALPHA, epsrel=1e-17)
    assert not rep.passed
    for name in ("green", "quantum", "quantum_quadrature"):
        assert rep.errors[name].startswith("RuntimeError")
        assert rep.shifts[name] is None


def sqq_per_node(traj, alpha_c, n_polar=64, n_azimuth=128):
    """Route c' node by node: at every time node of the route's own
    `_support_integral` a sphere grid aligned with v(t) and the full
    retarded-phase integrand at each of its directions."""
    basis = jacobi_basis(traj, 0.0)
    return -(alpha_c / (4.0 * np.pi)) * _support_integral(
        lambda ts: np.array([sqq_direction_sum(traj, basis, float(t), n_polar, n_azimuth)
                             for t in ts]), traj, basis)


def sqq_direction_sum(traj, basis, t, n_polar, n_azimuth):
    """The retarded-phase integrand at time t summed over the sphere grid."""
    kin = kinematics(traj, t)
    v, a = kin.v, kin.a
    h = hamiltonian_hessian(traj, t)
    X, K = basis(t)
    Xdot = h.h_xp.T @ X + h.h_pp @ K

    nodes, w = sphere_quadrature(n_polar, n_azimuth, axis=v if v @ v > 0 else None)
    xd = 1.0 - nodes @ v
    na = nodes @ a
    d2t = na / xd**3
    d2x = (xd[:, None] * a[None, :] + na[:, None] * v[None, :]) / (xd**3)[:, None]

    nJ = nodes @ X
    nJd = nodes @ Xdot
    dS0 = nJd / xd[:, None] + nJ * (na / xd**2)[:, None]
    # d2x_j dS^j_i, with dS = dJ + (n.dJ) v / xd + (n.J) a / xd + (n.J)(n.a) v / xd^2
    d2x_v, d2x_a = d2x @ v, d2x @ a
    d2x_dS = (d2x @ Xdot + nJd * (d2x_v / xd)[:, None] + nJ * (d2x_a / xd)[:, None]
              + nJ * (na * d2x_v / xd**2)[:, None])
    return w @ (d2t[:, None] * dS0 - d2x_dS)


def test_factored_quadrature_matches_per_node(time_traj, spatial_traj):
    """Polar sums of azimuthal pre-sums reproduce the per-direction sum on
    a time axis, a spatial axis, the rest_pulse scenario and a coarse grid."""
    rest = bundled_scenario("rest_pulse").build()
    cases = [(time_traj, {}), (spatial_traj, {}), (rest, {}),
             (time_traj, {"n_polar": 10, "n_azimuth": 7})]
    for traj, grid in cases:
        factored = shift_quantum_quadrature(traj, alpha_c=ALPHA, **grid)
        per_node = sqq_per_node(traj, ALPHA, **grid)
        assert np.linalg.norm(factored - per_node) <= 1e-13 * np.linalg.norm(per_node)


def test_frame_grid_rotates_onto_sphere_nodes(time_traj):
    """The pre-summed grid, rotated into the frame of an axis, is the node
    set sphere_quadrature builds for that axis; a zero axis gets z."""
    v = kinematics(time_traj, -1.5).v
    for n_polar, n_azimuth in ((64, 128), (10, 7)):
        b, wmu, wphi = _frame_grid(n_polar, n_azimuth)
        for axis in (v, [0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [-0.9, 0.0, 0.0], [0.3, -0.5, 0.81]):
            nodes, w = sphere_quadrature(n_polar, n_azimuth, axis=axis)
            rotated = (b @ _polar_frames([axis])[0]).reshape(-1, 3)
            assert np.max(np.abs(rotated - nodes)) <= 1e-15
            assert np.array_equal(np.outer(wmu, np.full(n_azimuth, wphi)).ravel(), w)


def test_shift_linear_in_coupling(time_traj):
    """All shifts scale exactly linearly with the coupling."""
    d1 = classical_shift_direct(time_traj, ALPHA)
    d2 = classical_shift_direct(time_traj, 2 * ALPHA)
    assert np.max(np.abs(d2 - 2 * d1)) < 1e-10 * np.linalg.norm(d1)
    g1 = classical_shift_green(time_traj, ALPHA)
    g2 = classical_shift_green(time_traj, 2 * ALPHA)
    assert np.max(np.abs(g2 - 2 * g1)) < 1e-12 * np.linalg.norm(g1)
    q1 = shift_quantum_closed(time_traj, alpha_c=ALPHA)
    q2 = shift_quantum_closed(time_traj, alpha_c=2 * ALPHA)
    assert np.max(np.abs(q2 - 2 * q1)) < 1e-12 * np.linalg.norm(q1)


def test_transverse_parity(time_profile, time_traj):
    """Flipping the transverse potential component flips the transverse shift."""
    flipped_profile = type(time_profile)(axis="time", v_past=[0.0, -0.2, 0.0, 0.3],
                                         x1=2.0, x2=1.0)
    flipped = integrate_trajectory(flipped_profile, [0.0, -0.1, 0.8], 1.0)
    shift = classical_shift_green(time_traj, ALPHA)
    mirror = classical_shift_green(flipped, ALPHA)
    scale = np.linalg.norm(shift)
    assert abs(shift[1] + mirror[1]) < 1e-9 * scale
    assert abs(shift[2] - mirror[2]) < 1e-9 * scale


def test_compare_routes_zero_coupling(time_traj):
    """alpha_c = 0: every route returns zero and the report passes."""
    rep = compare_routes(time_traj, 0.0, n_polar=16, n_azimuth=32)
    assert rep.passed
    for shift in rep.shifts.values():
        assert np.array_equal(shift, np.zeros(3))
    assert rep.max_residual == 0.0
    assert rep.length_scale > 0


def test_compare_routes_report_shape(collinear_traj):
    """Full report: per-route vectors, residual matrix, pass flag, timings."""
    rep = compare_routes(collinear_traj, ALPHA, threshold=1e-4)
    assert rep.passed
    assert rep.max_residual < 1e-5
    assert set(rep.shifts) == {"direct", "green", "quantum", "quantum_quadrature"}
    assert rep.residuals.shape == (4, 4)
    assert np.array_equal(rep.residuals, rep.residuals.T)
    assert all(v >= 0 for v in rep.timings.values())


@pytest.mark.parametrize("routes", [("direkt",), ()])
def test_compare_routes_refuses_a_bad_route_list(routes):
    """A misspelled or empty route list is an error, not a vacuous pass."""
    sc = bundled_scenario("weak")
    with pytest.raises(ValueError, match="choose from direct, green, quantum"):
        compare_routes(sc.build(), sc.alpha_c, routes=routes)


def test_routes_refuse_a_foreign_or_late_basis():
    """Each consumer of the kick-time-0 Jacobi basis raises for the basis of
    another trajectory and for one kicked at 0.5 t_min, where it used to
    return a wrong shift."""
    sc = bundled_scenario("weak")
    traj = sc.build()
    window = default_window(traj)
    consumers = [
        lambda basis: classical_shift_green(traj, sc.alpha_c, basis=basis),
        lambda basis: shift_quantum_closed(traj, basis, sc.alpha_c),
        lambda basis: shift_quantum_quadrature(traj, basis, sc.alpha_c, n_polar=4, n_azimuth=8),
        lambda basis: shift_from_amplitudes(traj, basis, window, sc.charge, n_polar=2,
                                            n_azimuth=4),
    ]
    for basis, message in ((jacobi_basis(bundled_scenario("oblique").build(), 0.0),
                            "different trajectory"),
                           (jacobi_basis(traj, 0.5 * traj.t_min), "kicked at s = ")):
        for consumer in consumers:
            with pytest.raises(ValueError, match=message):
                consumer(basis)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_routes_agree_far_below_threshold(name):
    """Every bundled scenario's four routes agree to 1e-7 at default resolution."""
    sc = bundled_scenario(name)
    rep = compare_routes(sc.build(), sc.alpha_c, threshold=sc.residual_threshold,
                         n_polar=sc.n_polar, n_azimuth=sc.n_azimuth, epsrel=sc.epsrel)
    assert rep.passed, rep.errors
    assert rep.max_residual < 1e-7


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_direct_route_error_follows_tol(tol):
    """The direct and green routes agree to 10 tol on the weak-field CLI scenario."""
    sc = scenario_from_dict({
        "name": "unit", "mass": 1.0, "charge": 0.3, "p_final": [0.05, 0.0, 0.6], "tol": tol,
        "potential": {"axis": "time", "v_past": [0.0, 0.02, 0.0, 0.01], "x1": 2.0, "x2": 1.0},
    })
    rep = compare_routes(sc.build(), sc.alpha_c, epsrel=sc.epsrel, routes=("direct", "green"))
    assert rep.max_residual <= 10 * tol

"""Position-shift routes: angular integrals, route equalities, symmetries."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rrshift import (angular_integrals, angular_integrals_quadrature, bundled_scenario,
                     classical_shift_direct, classical_shift_green, compare_routes,
                     hamiltonian_hessian, integrate_trajectory, jacobi_basis, kinematics,
                     ld_coordinate_force, shift_quantum_closed, shift_quantum_quadrature,
                     sphere_quadrature)
from rrshift.shift import _frame_grid, _gauss_panels, _polar_frames, _support_integral
from rrshift.variational import _linear_rhs

ALPHA = 0.0071619724391352765  # e = 0.3


def test_sphere_quadrature_polynomial_moments():
    """Exact low-order moments: 4pi, zero mean direction, isotropic second moment."""
    dirs, weights = sphere_quadrature(16, 32)
    assert abs(np.sum(weights) - 4 * np.pi) < 1e-12
    np.testing.assert_allclose(weights @ dirs, np.zeros(3), rtol=0, atol=1e-13)
    second = (weights[:, None, None] * dirs[:, :, None] * dirs[:, None, :]).sum(axis=0)
    np.testing.assert_allclose(second, (4 * np.pi / 3) * np.eye(3), rtol=0, atol=1e-12)


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
    """Route b without the swap identity: dx^i_(j)(0; s) from a new unit-kick
    solve at every Gauss-Legendre node s of the forcing support."""
    rhs = _linear_rhs(traj)
    y0 = np.concatenate([np.zeros(9), np.eye(3).ravel()])
    edges = [traj.acc_start, *traj.breakpoints, traj.acc_end]
    total = np.zeros(3)
    for s, w in zip(*_gauss_panels(edges, n_nodes)):
        res = solve_ivp(rhs, (s, 0.0), y0, method="DOP853", rtol=traj.tol, atol=traj.tol)
        assert res.success, res.message
        X0 = res.y[:9, -1].reshape(3, 3)  # dx^i_(j)(0; s)
        total += w * (X0 @ ld_coordinate_force(traj, float(s), alpha_c))
    return total


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
                                          n_azimuth=sc.n_azimuth, n_time=sc.n_time)
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
    assert kink not in time_traj.sol.ts and kink not in time_traj.breakpoints
    with pytest.raises(RuntimeError, match="not converged"):
        _support_integral(lambda ts: np.abs(ts - kink), time_traj)


def test_unconverged_quadrature_is_reported(time_traj):
    """An epsrel below rounding fails the green and quantum routes; the
    report records the errors and does not pass."""
    rep = compare_routes(time_traj, ALPHA, epsrel=1e-17, serial=True)
    assert not rep.passed
    for name in ("green", "quantum"):
        assert rep.errors[name].startswith("RuntimeError")
        assert rep.shifts[name] is None


def sqq_per_node(traj, alpha_c, n_polar=64, n_azimuth=128, n_time=320):
    """Route c' node by node: at every time node a sphere grid aligned with
    v(t) and the full retarded-phase integrand at each of its directions."""
    basis = jacobi_basis(traj, 0.0)
    lo, hi = traj.acc_start, traj.acc_end
    cuts = [lo] + [c for c in sorted(traj.breakpoints) if lo < c < hi] + [hi]
    t_nodes, t_w = _gauss_panels(cuts, max(n_time // (len(cuts) - 1), 6))
    total = np.zeros(3)
    for t, wt in zip(t_nodes, t_w):
        kin = kinematics(traj, float(t))
        v, a = kin.v, kin.a
        h = hamiltonian_hessian(traj, float(t))
        X = np.column_stack([f.dx(float(t)) for f in basis])
        Xdot = h.h_xp.T @ X + h.h_pp @ np.column_stack([f.dp(float(t)) for f in basis])

        nodes, w = sphere_quadrature(n_polar, n_azimuth, axis=v if v @ v > 0 else None)
        xd = 1.0 - nodes @ v
        na = nodes @ a
        d2t = na / xd**3
        d2x = (xd[:, None] * a[None, :] + na[:, None] * v[None, :]) / (xd**3)[:, None]

        nJ = nodes @ X
        nJd = nodes @ Xdot
        dS0 = nJd / xd[:, None] + nJ * (na / xd**2)[:, None]
        dS = (
            Xdot[None, :, :]
            + (nJd / xd[:, None])[:, None, :] * v[None, :, None]
            + (nJ / xd[:, None])[:, None, :] * a[None, :, None]
            + (nJ * (na / xd**2)[:, None])[:, None, :] * v[None, :, None]
        )
        integrand = d2t[:, None] * dS0 - np.einsum("nj,nji->ni", d2x, dS)
        total += wt * (w @ integrand)
    return -(alpha_c / (4.0 * np.pi)) * total


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
    rep = compare_routes(time_traj, 0.0, n_polar=16, n_azimuth=32, n_time=64)
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

"""Trajectory integration: anchoring, conservation laws, kinematic derivatives."""

from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from test_flow_sample import AXES, P_FINAL, make_profile
from test_semiclassical import MODE_PROFILES, mode_test_stack

from rrshift import (SHAPE_NAMES, PotentialProfile, ReflectedTrajectoryError, bundled_scenario,
                     integrate_trajectory, jacobi_basis, kinematics, ld_coordinate_force,
                     retarded_perturbation, solve_mode_function)
from rrshift import dynamics
from rrshift.dynamics import _flow_tangent, _transition_cuts
from rrshift.potentials import _derivatives, axis_index, eval_potential
from rrshift.shift import _response_sample

BUNDLED_SCENARIOS = ("amplitude_shift", "collinear", "convergence", "energy", "oblique",
                     "pulse_single", "rest_pulse", "spatial", "weak")

# every dense solution over the trajectory domain [t_min, 0], as an evaluator
DENSE_SOLUTIONS = {
    "trajectory_state": lambda traj: traj.state,
    "jacobi_basis": lambda traj: jacobi_basis(traj, 0.5 * traj.t_min),
    "retarded_perturbation": lambda traj: retarded_perturbation(traj, 0.01).delta_x,
    "mode_function": lambda traj: solve_mode_function(traj.profile, traj.p_final, 0.5,
                                                      (traj.t_min, 0.0), mass=traj.mass).modes,
}


def test_free_particle_coasts(free_traj):
    """V == 0: x(t) = v t with v = p/sqrt(p^2 + m^2), a = adot = 0."""
    p = np.asarray(free_traj.p_final, dtype=float)
    v = p / np.sqrt(p @ p + free_traj.mass**2)
    for t in (free_traj.t_min, -1.3, -0.4, 0.0):
        np.testing.assert_allclose(free_traj.position(t), v * t, rtol=0, atol=1e-13)
        kin = kinematics(free_traj, t)
        assert np.array_equal(kin.a, np.zeros(3))
        assert np.array_equal(kin.adot, np.zeros(3))


def test_anchored_at_origin(time_traj):
    """x(0) = 0 and P(0) = p_final, to well below 100x the integrator tol."""
    kin = kinematics(time_traj, 0.0)
    np.testing.assert_allclose(kin.x, np.zeros(3), rtol=0, atol=1e-9)
    np.testing.assert_allclose(kin.P, time_traj.p_final, rtol=0, atol=1e-9)


def test_asymptotic_past_velocity(time_traj):
    """In the constant past region v = (p - V)/sqrt((p - V)^2 + m^2)."""
    vp = eval_potential(time_traj.profile, time_traj.t_min)[1:]
    mech = np.asarray(time_traj.p_final, dtype=float) - vp
    expected = mech / np.sqrt(mech @ mech + time_traj.mass**2)
    np.testing.assert_allclose(time_traj.velocity(time_traj.t_min), expected,
                               rtol=0, atol=1e-9)


def test_mass_shell_time_axis(time_traj):
    """sigma^2 - (P - V)^2 = m^2 over the whole domain, within 10x tol."""
    ts = np.linspace(time_traj.t_min, 0.0, 200)
    for t in ts:
        kin = kinematics(time_traj, t)
        mech = kin.P - eval_potential(time_traj.profile, t)[1:]
        residual = kin.sigma**2 - mech @ mech - time_traj.mass**2
        assert abs(residual) < 10 * time_traj.tol


def test_mass_shell_spatial_axis(spatial_traj):
    """Same invariant with the potential sampled at the particle's z."""
    ts = np.linspace(spatial_traj.t_min, 0.0, 200)
    for t in ts:
        kin = kinematics(spatial_traj, t)
        pot = eval_potential(spatial_traj.profile, kin.x[2])
        mech = kin.P - pot[1:]
        residual = kin.sigma**2 - mech @ mech - spatial_traj.mass**2
        assert abs(residual) < 10 * spatial_traj.tol


def test_spatial_axis_conservation(spatial_traj):
    """Transverse canonical momentum and H = sigma + V0 are conserved."""
    ts = np.linspace(spatial_traj.t_min, 0.0, 100)
    k0 = kinematics(spatial_traj, spatial_traj.t_min)
    h0 = k0.sigma + eval_potential(spatial_traj.profile, k0.x[2])[0]
    for t in ts:
        kin = kinematics(spatial_traj, t)
        np.testing.assert_allclose(kin.P[:2], spatial_traj.p_final[:2],
                                   rtol=0, atol=1e-12)
        h = kin.sigma + eval_potential(spatial_traj.profile, kin.x[2])[0]
        assert abs(h - h0) < 1e-9
        assert spatial_traj.velocity(t)[2] > 0.0  # traversal: z always increases


def test_time_axis_canonical_momentum_exact(time_traj):
    """With no x-dependence the canonical momentum never moves at all."""
    for t in np.linspace(time_traj.t_min, 0.0, 50):
        np.testing.assert_allclose(kinematics(time_traj, t).P, time_traj.p_final,
                                   rtol=0, atol=1e-13)


def test_gamma_matches_sigma(time_traj, spatial_traj):
    """sigma = m * gamma to 1e-12 relative."""
    for traj in (time_traj, spatial_traj):
        for t in np.linspace(traj.t_min, 0.0, 40):
            kin = kinematics(traj, t)
            assert abs(kin.sigma - traj.mass * kin.gamma) < 1e-12 * kin.sigma


def test_acceleration_matches_velocity_differences(time_traj):
    """Analytic a and adot agree with central differences of v and a."""
    h = 1e-5
    for t in np.linspace(time_traj.t_min + 0.1, -0.1, 25):
        kin = kinematics(time_traj, t)
        fd_a = (np.asarray(kinematics(time_traj, t + h).v)
                - kinematics(time_traj, t - h).v) / (2 * h)
        np.testing.assert_allclose(kin.a, fd_a, rtol=0, atol=1e-7)
        fd_adot = (np.asarray(kinematics(time_traj, t + h).a)
                   - kinematics(time_traj, t - h).a) / (2 * h)
        np.testing.assert_allclose(kin.adot, fd_adot, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name", ["spatial", "oblique", "rest_pulse"])
def test_flow_tangent_matches_central_differences(name):
    """dv and da along the kick-time-0 Jacobi basis (X, K) equal central
    differences of `kinematics` over trajectories re-anchored at p_final
    +- 1e-5 e_i, at times across the forcing, to 1e-8 of their scale; dv
    is the basis's own dX/dt to rounding.  `spatial` (z axis) exercises
    the coordinate's tangent, the time-axis scenarios its absence."""
    sc = bundled_scenario(name)
    traj = sc.build()
    basis = jacobi_basis(traj, 0.0)
    ts = np.linspace(traj.acc_start, traj.acc_end, 41)
    dv, da = _flow_tangent(traj.profile, kinematics(traj, ts), *basis(ts))
    h = 1e-5
    fd_v, fd_a = np.empty_like(dv), np.empty_like(da)
    for j in range(3):
        plus, minus = (kinematics(integrate_trajectory(sc.profile, sc.p_final + sign * h * e,
                                                       sc.mass, sc.tol), ts)
                       for sign, e in ((1.0, np.eye(3)[j]), (-1.0, np.eye(3)[j])))
        fd_v[..., j] = (plus.v - minus.v) / (2.0 * h)
        fd_a[..., j] = (plus.a - minus.a) / (2.0 * h)
    assert np.max(np.abs(dv - fd_v)) < 1e-8 * np.max(np.abs(fd_v))
    assert np.max(np.abs(da - fd_a)) < 1e-8 * np.max(np.abs(fd_a))
    xdot = _response_sample(traj, basis, ts)[2]
    assert np.max(np.abs(dv - xdot)) < 1e-14 * np.max(np.abs(xdot))


def test_coasting_extensions_are_linear(time_traj):
    """position/velocity extend as straight lines outside [t_min, 0]."""
    v_past = time_traj.velocity(time_traj.t_min)
    x_past = time_traj.position(time_traj.t_min)
    np.testing.assert_allclose(time_traj.position(time_traj.t_min - 3.0),
                               x_past - 3.0 * v_past, rtol=0, atol=1e-14)
    assert np.array_equal(time_traj.velocity(time_traj.t_min - 3.0), v_past)
    v_now = time_traj.velocity(0.0)
    np.testing.assert_allclose(time_traj.position(2.0), 2.0 * v_now,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS + ("spatial_traj",))
def test_velocity_equals_the_per_node_first_integrals(name, request):
    """Stored coasting velocities outside the forcing and the first integrals
    inside it equal (P - V) / sigma sampled at every node, bit for bit."""
    traj = (request.getfixturevalue(name) if name == "spatial_traj"
            else bundled_scenario(name).build())
    ts = np.concatenate([np.linspace(traj.t_min - 2.0, 1.0, 301),
                         [traj.acc_start, traj.acc_end], traj.ts])
    u = dynamics._first_integrals(traj.profile, traj.p_final, traj.mass, traj._locate(ts)[0])[0]
    v = traj.velocity(ts)
    assert np.array_equal(v, u[:, 1:] / u[:, :1])
    assert np.array_equal(traj.velocity(traj.acc_end), v[302])


def test_reflected_trajectory_raises():
    """A scalar barrier taller than the kinetic energy turns the particle
    around, alone or as one momentum of a stack of first integrals."""
    barrier = PotentialProfile(axis="z", v_past=[0.5, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    with pytest.raises(ReflectedTrajectoryError):
        integrate_trajectory(barrier, [0.0, 0.0, 0.2], 1.0)
    stack, s = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.2]]), np.linspace(-2.5, 0.0, 11)
    dynamics._first_integrals(barrier, stack[:1], 1.0, s)
    with pytest.raises(ReflectedTrajectoryError, match="reaches zero at z=-2"):
        dynamics._first_integrals(barrier, stack, 1.0, s)


def test_t_min_leaves_margin(time_traj):
    """Integration starts before the acceleration with a 10% margin."""
    duration = time_traj.acc_duration
    assert time_traj.t_min <= time_traj.acc_start - 0.1 * duration + 1e-12


def test_xi_monotone(time_traj):
    """xi = t - n.x increases strictly for any direction."""
    rng = np.random.default_rng(17)
    ts = np.linspace(time_traj.t_min, 0.0, 300)
    for _ in range(5):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        xi = time_traj.xi(n, ts)
        assert np.all(np.diff(xi) > 0)


@pytest.mark.parametrize("kind", DENSE_SOLUTIONS)
def test_dense_solutions_reject_times_outside_domain(kind, time_traj):
    """Each dense solution evaluates at both ends of its domain and raises
    just outside it and at a NaN."""
    evaluate = DENSE_SOLUTIONS[kind](time_traj)
    lo, hi = time_traj.t_min, 0.0
    evaluate(np.array([lo, hi]))
    for t in (lo - 1e-8, hi + 1e-8, np.nan):
        with pytest.raises(ValueError, match="outside"):
            evaluate(t)


@pytest.mark.parametrize("evaluate", ["position", "velocity", "ld_coordinate_force"])
def test_non_finite_times_raise(evaluate, time_traj):
    """position, velocity and the self-force evaluate across the domain and
    raise ValueError at a NaN or an infinity, alone or in an array."""
    fn = (partial(ld_coordinate_force, time_traj, alpha_c=0.01)
          if evaluate == "ld_coordinate_force" else getattr(time_traj, evaluate))
    fn(np.array([time_traj.t_min, 0.5 * time_traj.t_min, 0.0]))
    for t in (np.nan, np.inf, -np.inf, np.array([0.5 * time_traj.t_min, np.nan])):
        with pytest.raises(ValueError, match="outside"):
            fn(t)


# inputs refused before any panel is fitted, each naming its argument
P_TIME = P_FINAL["time"]
BAD_NUMBERS = {
    "trajectory_mass_nan": ("mass", lambda prof: integrate_trajectory(prof, P_TIME, np.nan)),
    "trajectory_p_final_nan": ("p_final",
                               lambda prof: integrate_trajectory(prof, [0.0, np.nan, 0.8], 1.0)),
    "trajectory_tol_nan": ("tol", lambda prof: integrate_trajectory(prof, P_TIME, 1.0, np.nan)),
    "trajectory_tol_negative": ("tol", lambda prof: integrate_trajectory(prof, P_TIME, 1.0, -1.0)),
    **{f"modes_mass_{m}": ("mass", lambda prof, m=m: solve_mode_function(
        prof, P_TIME, 0.5, (-3.0, 0.0), mass=m)) for m in (np.nan, -1.0, 0.0)},
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_bad_numbers_raise_up_front(case, time_profile):
    """A NaN or non-positive mass or tol, or a NaN in p_final, raises a
    ValueError that names the argument, not a late solver failure."""
    name, build = BAD_NUMBERS[case]
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(time_profile)


@pytest.mark.parametrize("axis", ["time", "x", "y", "z"])
def test_first_integrals_of_a_stack_equal_one_call_per_momentum(axis):
    """A momentum stack (M, 3) gives u (M, N, 4) and P (M, N, 3) whose rows
    equal M one-momentum calls bit for bit, on the time axis and on each
    spatial one."""
    prof = make_profile("double_bump", axis)
    stack = np.random.default_rng(27).uniform(-0.4, 0.4, size=(5, 3))
    if axis != "time":
        stack[:, axis_index(prof)] += 2.0  # traversing
    s = np.concatenate([np.linspace(-2.5, 0.5, 61), _transition_cuts(prof)])
    u, P = dynamics._first_integrals(prof, stack, 1.0, s)
    assert u.shape == (5, s.size, 4) and P.shape == (5, s.size, 3)
    for j, p in enumerate(stack):
        u_one, P_one = dynamics._first_integrals(prof, p, 1.0, s)
        assert np.array_equal(u[j], u_one)
        assert np.array_equal(P[j], P_one)


# Hamilton's equations, x' = v and P' = e_a (v . dV/ds - dV^0/ds), stepped by
# DOP853 from the anchor back to t_min: the oracle of the series built from
# the first integrals.  A terminal event on the join coordinate (t, or x^a on
# a spatial axis) ends each solve at a cut of the forcing, so no step
# straddles a join.
def hamilton_oracle(profile, p_final, mass, t_min, tol=1e-13):
    """Evaluator ts -> (x, P) stacked as (N, 6), from the restarted DOP853 solves."""
    ai = axis_index(profile)

    def rhs(t, y):
        V, dV = _derivatives(profile, t if ai is None else y[ai], (0, 1))
        w = y[3:] - V[0, 1:]
        v = w / np.sqrt(w @ w + mass * mass)
        dP = np.zeros(3) if ai is None else np.eye(3)[ai] * (v @ dV[0, 1:] - dV[0, 0])
        return np.concatenate([v, dP])

    cuts = list(_transition_cuts(profile))
    t, y, segments = 0.0, np.concatenate([np.zeros(3), p_final]), []
    while True:
        event = (lambda t, y, c=cuts[-1]: (t if ai is None else y[ai]) - c) if cuts else None
        if event:
            event.terminal = True
        res = solve_ivp(rhs, (t, t_min), y, method="DOP853", rtol=tol, atol=tol,
                        dense_output=True, events=event)
        assert res.success, res.message
        segments.append((res.t[-1], t, res.sol))
        if res.status != 1:
            break
        t, y = res.t_events[0][0], res.y_events[0][0]
        cuts.pop()

    def evaluate(ts):
        out = np.empty((ts.size, 6))
        for lo, hi, sol in segments:
            inside = (ts >= lo) & (ts <= hi)
            out[inside] = sol(ts[inside]).T
        return out

    return evaluate


# the case where a DOP853 trajectory stepped across the joins at tol 1e-10
# was 2.3e-7 off in x and 8.6e-7 in P
FOUND_PROFILE = PotentialProfile(axis="z", v_past=np.zeros(4), x1=2.0, x2=1.0,
                                 shape="double_bump", amplitude=[0.1, 0.05, 0.1, 0.0])
FOUND_P = [0.1, 0.0, 0.6]
ORACLE_CASES = {"found": (FOUND_PROFILE, FOUND_P)} | {
    f"{axis}-{shape}": (make_profile(shape, axis), P_FINAL[axis])
    for axis in AXES for shape in SHAPE_NAMES}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_trajectory_matches_hamilton_oracle(case):
    """At tol 1e-10 the series lie within 1e-10 in x and 1e-9 in P of the
    DOP853 oracle at tol 1e-13, over the whole domain."""
    profile, p_final = ORACLE_CASES[case]
    traj = integrate_trajectory(profile, p_final, 1.0)
    ts = np.concatenate([np.linspace(traj.t_min, 0.0, 801), traj.ts])
    ref = hamilton_oracle(profile, np.asarray(p_final, dtype=float), 1.0, traj.t_min)(ts)
    x, P = traj.state(ts)
    assert np.max(np.abs(x - ref[:, :3])) < 1e-10
    assert np.max(np.abs(P - ref[:, 3:])) < 1e-9


@pytest.mark.parametrize("case", ["found", *BUNDLED_SCENARIOS])
def test_doubling_the_degree_moves_state_below_1e_12(case, monkeypatch):
    """Every panel is resolved: degree-64 series move x and P by at most 1e-12."""
    if case == "found":
        profile, p_final, mass, tol = FOUND_PROFILE, FOUND_P, 1.0, 1e-10
    else:
        sc = bundled_scenario(case)
        profile, p_final, mass, tol = sc.profile, sc.p_final, sc.mass, sc.tol
    traj = integrate_trajectory(profile, p_final, mass, tol)
    ts = np.linspace(traj.t_min, 0.0, 401)
    monkeypatch.setattr(dynamics, "_CHEB_DEGREE", 2 * dynamics._CHEB_DEGREE)
    fine = integrate_trajectory(profile, p_final, mass, tol)
    for coarse_part, fine_part in zip(traj.state(ts), fine.state(ts)):
        assert np.max(np.abs(coarse_part - fine_part)) < 1e-12


@pytest.mark.parametrize("hbar", [0.1, 0.05, 0.0125])
@pytest.mark.parametrize("shape", list(MODE_PROFILES))
def test_doubling_the_degree_moves_modes_below_1e_11(shape, hbar, monkeypatch):
    """The one degree reaches the mode collocation too: degree-64 panels (65
    coefficient rows) move each phi by less than 1e-11 and each dphi/dt by
    less than 1e-11 of its largest value."""
    profile = MODE_PROFILES[shape]
    stack = mode_test_stack(np.array([0.0, 0.1, 0.8]), hbar)
    span = (-profile.x1 - 0.3, 0.2)
    ts = np.linspace(*span, 2001)
    coarse = solve_mode_function(profile, stack, hbar, span)
    monkeypatch.setattr(dynamics, "_CHEB_DEGREE", 2 * dynamics._CHEB_DEGREE)
    fine = solve_mode_function(profile, stack, hbar, span)
    assert fine.coefs.shape[1] == 65
    (phi, dphi), (phi_fine, dphi_fine) = coarse.modes(ts), fine.modes(ts)
    for i in range(len(stack)):
        assert np.max(np.abs(phi[:, i] - phi_fine[:, i])) < 1e-11
        scale = np.max(np.abs(dphi_fine[:, i]))
        assert np.max(np.abs(dphi[:, i] - dphi_fine[:, i])) < 1e-11 * scale


def test_series_values_do_not_depend_on_the_batch():
    """1001 times in one call give, bit for bit, their values one by one:
    the mode stack on `convergence` at hbar = 0.05 and the position on the
    spatial-axis `spatial` trajectory."""
    sc = bundled_scenario("convergence")
    traj = sc.build()
    modes = solve_mode_function(sc.profile, mode_test_stack(sc.p_final, 0.05), 0.05,
                                (traj.t_min, 0.2), mass=sc.mass).modes
    ts = np.linspace(traj.t_min, 0.2, 1001)
    assert np.array_equal(np.stack(modes(ts), axis=1), np.array([modes(t) for t in ts]))
    spatial = bundled_scenario("spatial").build()
    ts = np.linspace(spatial.t_min, 0.0, 1001)
    assert np.array_equal(spatial.position(ts), np.array([spatial.position(t) for t in ts]))


# a z-axis scalar barrier of height a meets a particle of kinetic energy
# sqrt(0.75^2 + 1) - 1 = 0.25 at its peak, the bump's u = 0.5 join
def barrier(a):
    return PotentialProfile(axis="z", v_past=np.zeros(4), x1=2.0, x2=1.0, shape="bump",
                            amplitude=[a, 0.0, 0.0, 0.0])


def test_turning_point_at_the_peak_raises():
    with pytest.raises(ReflectedTrajectoryError, match="reaches zero at z=-1.5"):
        integrate_trajectory(barrier(0.25), [0.0, 0.0, 0.75], 1.0)


def test_barrier_just_below_the_kinetic_energy_is_traversed():
    """At 99% of the kinetic energy the particle crawls over the peak (the
    panels beside it are halved) and keeps H and P_perp."""
    traj = integrate_trajectory(barrier(0.99 * 0.25), [0.0, 0.0, 0.75], 1.0)
    assert len(traj.ts) > 3
    ts = np.linspace(traj.t_min, 0.0, 301)
    x, P = traj.state(ts)
    sigma = np.sqrt(np.einsum("ij,ij->i", P, P) + 1.0)
    h = sigma + eval_potential(traj.profile, x[:, 2])[:, 0]
    np.testing.assert_allclose(h, 1.25, rtol=1e-13)
    assert np.array_equal(P[:, :2], np.zeros((ts.size, 2)))
    assert np.all(traj.velocity(ts)[:, 2] > 0.0)


def test_trajectory_series_fails_loudly_when_unresolved(time_profile, monkeypatch):
    """Degree-4 panels cannot meet tol even after every halving: the build
    raises and names the panel and its tail instead of returning."""
    monkeypatch.setattr(dynamics, "_CHEB_DEGREE", 4)
    with pytest.raises(RuntimeError, match=r"trajectory series failed: panel \d+ \[.*\] keeps "
                                           r"a relative Chebyshev tail"):
        integrate_trajectory(time_profile, [0.0, 0.1, 0.8], 1.0)

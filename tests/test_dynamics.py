"""Trajectory integration: anchoring, conservation laws, kinematic derivatives."""

import numpy as np
import pytest

from rrshift import (PotentialProfile, ReflectedTrajectoryError, integrate_trajectory,
                     jacobi_basis, kinematics, retarded_perturbation, solve_mode_function)
from rrshift.potentials import eval_potential

# every dense ODE solution over the trajectory domain [t_min, 0], as an evaluator
DENSE_SOLUTIONS = {
    "trajectory_state": lambda traj: traj.state,
    "jacobi_basis": lambda traj: jacobi_basis(traj, 0.5 * traj.t_min),
    "retarded_perturbation": lambda traj: retarded_perturbation(traj, 0.01).delta_x,
    "mode_function": lambda traj: solve_mode_function(traj.profile, traj.p_final, 0.5,
                                                      (traj.t_min, 0.0), mass=traj.mass),
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


def test_reflected_trajectory_raises():
    """A scalar barrier taller than the kinetic energy turns the particle around."""
    barrier = PotentialProfile(axis="z", v_past=[0.5, 0.0, 0.0, 0.0], x1=2.0, x2=1.0)
    with pytest.raises(ReflectedTrajectoryError):
        integrate_trajectory(barrier, [0.0, 0.0, 0.2], 1.0)


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
    just outside it."""
    evaluate = DENSE_SOLUTIONS[kind](time_traj)
    lo, hi = time_traj.t_min, 0.0
    evaluate(np.array([lo, hi]))
    for t in (lo - 1e-8, hi + 1e-8):
        with pytest.raises(ValueError, match="outside"):
            evaluate(t)

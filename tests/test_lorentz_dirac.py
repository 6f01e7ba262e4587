"""Radiation-reaction force: four-vector and coordinate forms, support, limits."""

import numpy as np

from rrshift import kinematics, ld_coordinate_force
from rrshift.lorentz_dirac import _four_force

ALPHA = 0.05


def ld_four_force(traj, t, alpha_c):
    """F^mu at time(s) t from one flow sample; scalar t -> shape (4,), array -> (N, 4)."""
    F = _four_force(kinematics(traj, np.atleast_1d(t)), alpha_c)
    return F[0] if np.ndim(t) == 0 else F


def four_velocity(traj, t):
    kin = kinematics(traj, t)
    return kin.gamma * np.array([1.0, *kin.v])


def minkowski_sq(a):
    return a[0] ** 2 - a[1:] @ a[1:]


def fd5(f, t, h):
    """Five-point central derivative of a vector-valued function."""
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def test_four_force_matches_proper_time_differences(time_traj):
    """(2a/3)[d^2u/dtau^2 + u (du/dtau . du/dtau)] from nested stencils."""
    h = 1e-4

    def u(t):
        return four_velocity(time_traj, t)

    def a_four(t):
        # d/dtau = gamma d/dt along the trajectory
        return kinematics(time_traj, t).gamma * fd5(u, t, h)

    for t in (-1.9, -1.6, -1.4, -1.2):
        gamma = kinematics(time_traj, t).gamma
        dadt = fd5(a_four, t, h)
        expected = (2 * ALPHA / 3) * (gamma * dadt + u(t) * minkowski_sq(a_four(t)))
        got = ld_four_force(time_traj, t, ALPHA)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-10)


def test_four_force_orthogonal_to_velocity(time_traj):
    """u_mu F^mu = 0 to 1e-9 of the force scale."""
    ts = np.linspace(time_traj.t_min, -1e-3, 100)
    forces = ld_four_force(time_traj, ts, ALPHA)
    scale = np.max(np.abs(forces))
    for t, force in zip(ts, forces):
        uvec = four_velocity(time_traj, t)
        inner = uvec[0] * force[0] - uvec[1:] @ force[1:]
        assert abs(inner) < 1e-9 * scale


def test_coordinate_force_is_four_force_over_gamma(time_traj, spatial_traj):
    """gamma * f equals the spatial part of the four-force, 1e-9 relative."""
    for traj in (time_traj, spatial_traj):
        ts = np.linspace(traj.t_min, -1e-3, 60)
        forces = ld_four_force(traj, ts, ALPHA)
        scale = np.max(np.abs(forces))
        for t, force in zip(ts, forces):
            gamma = kinematics(traj, t).gamma
            coord = ld_coordinate_force(traj, t, ALPHA)
            np.testing.assert_allclose(gamma * coord, force[1:], rtol=0,
                                       atol=1e-9 * scale)


def test_force_vanishes_outside_acceleration(time_traj):
    """Bitwise zero wherever a = 0, including the coasting extensions."""
    for t in (time_traj.t_min, time_traj.acc_end + 0.01, -0.001):
        if time_traj.acc_start < t < time_traj.acc_end:
            continue
        assert np.array_equal(ld_four_force(time_traj, t, ALPHA), np.zeros(4))
        assert np.array_equal(ld_coordinate_force(time_traj, t, ALPHA), np.zeros(3))
    ts = np.linspace(time_traj.acc_end + 1e-6, -1e-6, 40)
    assert np.array_equal(ld_four_force(time_traj, ts, ALPHA), np.zeros((40, 4)))


def test_force_linear_in_coupling(time_traj):
    """Doubling alpha_c doubles the force exactly."""
    ts = np.linspace(time_traj.acc_start, time_traj.acc_end, 25)
    assert np.array_equal(ld_four_force(time_traj, ts, 2 * ALPHA),
                          2 * ld_four_force(time_traj, ts, ALPHA))
    assert np.array_equal(ld_coordinate_force(time_traj, ts, 2 * ALPHA),
                          2 * ld_coordinate_force(time_traj, ts, ALPHA))


def test_vectorized_force_matches_scalar(time_traj):
    ts = np.linspace(time_traj.acc_start, time_traj.acc_end, 17)
    batch = ld_coordinate_force(time_traj, ts, ALPHA)
    for i, t in enumerate(ts):
        assert np.array_equal(batch[i], ld_coordinate_force(time_traj, t, ALPHA))

"""Shared fixtures: prebuilt trajectories reused across test modules."""

import numpy as np
import pytest

import rrshift as rr


@pytest.fixture(scope="session")
def time_profile():
    # time-dependent potential with a transverse component so nothing is collinear
    return rr.PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                               x1=2.0, x2=1.0)


@pytest.fixture(scope="session")
def time_traj(time_profile):
    return rr.integrate_trajectory(time_profile, [0.0, 0.1, 0.8], 1.0)


@pytest.fixture(scope="session")
def spatial_traj():
    return rr.bundled_scenario("spatial").build()


@pytest.fixture(scope="session")
def collinear_traj():
    return rr.bundled_scenario("collinear").build()


def free_twin(traj):
    """Zero-potential trajectory with the same anchor momentum and domain
    (the straight line used as the no-acceleration reference)."""
    profile = traj.profile
    quiet = rr.PotentialProfile(axis=profile.axis, v_past=np.zeros(4), x1=profile.x1, x2=profile.x2)
    return rr.integrate_trajectory(quiet, traj.p_final, traj.mass, tol=traj.tol, t_min=traj.t_min)


@pytest.fixture(scope="session")
def free_traj(time_traj):
    return free_twin(time_traj)

"""One flow sample per point: what the right-hand sides derive from a shared
sample equals, bit for bit, what the standalone public functions return."""

import numpy as np
import pytest

from rrshift import (SHAPE_NAMES, PotentialProfile, hamiltonian_hessian, integrate_trajectory,
                     kinematics, ld_coordinate_force)
from rrshift.lorentz_dirac import _coordinate_force
from rrshift.potentials import _derivatives, axis_index, eval_derivative
from rrshift.variational import _hessian_blocks

ALPHA = 0.0071619724391352765  # e = 0.3
AXES = ("time", "z")
P_FINAL = {"time": [0.05, 0.1, 0.8], "z": [0.3, 0.1, 1.1]}


def make_profile(shape, axis):
    vec = [0.0, 0.2, -0.1, 0.3] if axis == "time" else [0.15, 0.2, -0.1, 0.1]
    if shape in ("bump", "double_bump"):
        return PotentialProfile(axis=axis, v_past=np.zeros(4), x1=2.0, x2=1.0,
                                shape=shape, amplitude=vec)
    return PotentialProfile(axis=axis, v_past=vec, x1=2.0, x2=1.0, shape=shape)


def hessian_per_point(traj, t):
    """The Hessian closed form at one point, with 1-D dot products."""
    kin = kinematics(traj, t)
    v, sigma = kin.v, kin.sigma
    h_pp = (np.eye(3) - np.outer(v, v)) / sigma
    ai = axis_index(traj.profile)
    h_xx, h_xp = np.zeros((3, 3)), np.zeros((3, 3))
    if ai is not None:
        V1 = eval_derivative(traj.profile, kin.x[ai], 1)
        V2 = eval_derivative(traj.profile, kin.x[ai], 2)
        V1s, V2s = V1[1:], V2[1:]
        vdV1 = v @ V1s
        h_xp[ai, :] = (-V1s + v * vdV1) / sigma
        h_xx[ai, ai] = V2[0] - (kin.w @ V2s - V1s @ V1s) / sigma - vdV1**2 / sigma
    return h_xx, h_xp, h_pp


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_one_shape_evaluation_gives_every_order(shape, axis):
    """All four orders from one evaluation equal eval_derivative, for an
    array of coordinates and for each coordinate alone."""
    prof = make_profile(shape, axis)
    s = np.concatenate([np.linspace(-2.5, -0.5, 37), [-2.0, -1.0, -1.5]])
    orders = _derivatives(prof, s, (0, 1, 2, 3))
    for n in range(4):
        assert np.array_equal(orders[n], eval_derivative(prof, s, n))
        for k, sk in enumerate(s):
            assert np.array_equal(orders[n][k], eval_derivative(prof, float(sk), n))


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_shared_sample_matches_public_functions(shape, axis):
    """Hessian blocks, self-force and kinematics derived from one sample at
    N times equal hamiltonian_hessian (and its one-point closed form),
    ld_coordinate_force and kinematics called one time at a time, and the
    sample's V', V'' equal eval_derivative."""
    prof = make_profile(shape, axis)
    traj = integrate_trajectory(prof, P_FINAL[axis], 1.0)
    ts = np.concatenate([np.linspace(traj.t_min, 0.0, 41), traj.breakpoints])
    kin = kinematics(traj, ts)
    h_xx, h_xp, h_pp = _hessian_blocks(traj, kin)
    force = _coordinate_force(kin, ALPHA)

    assert np.array_equal(force, ld_coordinate_force(traj, ts, ALPHA))
    ai = axis_index(prof)
    for k, t in enumerate(ts):
        h = hamiltonian_hessian(traj, t)
        for public, point, shared in zip((h.h_xx, h.h_xp, h.h_pp),
                                         hessian_per_point(traj, t), (h_xx, h_xp, h_pp)):
            assert np.array_equal(public, shared[k])
            assert np.array_equal(point, shared[k])
        assert np.array_equal(ld_coordinate_force(traj, t, ALPHA), force[k])
        one = kinematics(traj, t)
        for name in ("x", "P", "w", "sigma", "v", "a", "adot", "gamma", "dV", "d2V"):
            assert np.array_equal(getattr(one, name), getattr(kin, name)[k])
        s = t if ai is None else one.x[ai]
        assert np.array_equal(eval_derivative(prof, s, 1), kin.dV[k])
        assert np.array_equal(eval_derivative(prof, s, 2), kin.d2V[k])

"""Linearized flow: Hessian blocks, Jacobi fields, symplectic identities."""

from functools import cache

import numpy as np
import pytest
from test_flow_sample import P_FINAL, make_profile

from rrshift import (SHAPE_NAMES, bundled_scenario, classical_shift_green, hamiltonian_hessian,
                     integrate_trajectory, jacobi_basis, kinematics, retarded_perturbation,
                     symplectic_product)
from rrshift import dynamics
from rrshift.dynamics import _DenseSolution
from rrshift.potentials import _derivatives, axis_index, eval_potential

ALPHA = 0.0071619724391352765  # e = 0.3


def hamiltonian_value(traj, x, P, t):
    """Independent H(x, P, t) for the finite-difference oracle."""
    prof = traj.profile
    s = t if prof.axis == "time" else x[axis_index(prof)]
    pot = eval_potential(prof, s)
    mech = P - pot[1:]
    return np.sqrt(mech @ mech + traj.mass**2) + pot[0]


def test_hessian_matches_second_differences(time_traj, spatial_traj):
    """All three blocks agree with second central differences of H."""
    h = 1e-4
    eye = np.eye(3)
    for traj in (time_traj, spatial_traj):
        for t in (-1.8, -1.3):
            kin = kinematics(traj, t)
            x0, p0 = np.asarray(kin.x), np.asarray(kin.P)

            def val(dx, dp):
                return hamiltonian_value(traj, x0 + dx, p0 + dp, t)

            blocks = hamiltonian_hessian(traj, t)
            scale = np.max(np.abs(blocks.h_pp))
            for i in range(3):
                for j in range(3):
                    fd_pp = (val(0, h * (eye[i] + eye[j])) - val(0, h * (eye[i] - eye[j]))
                             - val(0, h * (eye[j] - eye[i])) + val(0, -h * (eye[i] + eye[j]))) / (4 * h * h)
                    fd_xp = (val(h * eye[i], h * eye[j]) - val(h * eye[i], -h * eye[j])
                             - val(-h * eye[i], h * eye[j]) + val(-h * eye[i], -h * eye[j])) / (4 * h * h)
                    fd_xx = (val(h * (eye[i] + eye[j]), 0) - val(h * (eye[i] - eye[j]), 0)
                             - val(h * (eye[j] - eye[i]), 0) + val(-h * (eye[i] + eye[j]), 0)) / (4 * h * h)
                    assert abs(blocks.h_pp[i, j] - fd_pp) < 1e-6 * scale
                    assert abs(blocks.h_xp[i, j] - fd_xp) < 1e-6 * scale
                    assert abs(blocks.h_xx[i, j] - fd_xx) < 1e-6 * scale


def test_hessian_free_particle_closed_form(free_traj):
    """H_PP = (I - v v^T)/(gamma m), position blocks vanish."""
    kin = kinematics(free_traj, -1.0)
    v = np.asarray(kin.v)
    expected = (np.eye(3) - np.outer(v, v)) / (kin.gamma * free_traj.mass)
    blocks = hamiltonian_hessian(free_traj, -1.0)
    np.testing.assert_allclose(blocks.h_pp, expected, rtol=0, atol=1e-12)
    assert np.array_equal(blocks.h_xx, np.zeros((3, 3)))
    assert np.array_equal(blocks.h_xp, np.zeros((3, 3)))
    assert np.max(np.abs(blocks.h_pp - blocks.h_pp.T)) < 1e-12


def test_jacobi_initial_conditions(time_traj):
    """Unit momentum kick at s: dx(s) = 0 and dp(s) = e_j exactly."""
    s = -1.2
    X, K = jacobi_basis(time_traj, s)(s)
    np.testing.assert_allclose(X, np.zeros((3, 3)), rtol=0, atol=1e-14)
    np.testing.assert_allclose(K, np.eye(3), rtol=0, atol=1e-14)


def test_jacobi_free_particle_closed_form(free_traj):
    """Free response: dx(t; s) = (t - s)(I - v v^T) e_j / (gamma m), dp constant."""
    s = -1.5
    kin = kinematics(free_traj, -0.5)
    v = np.asarray(kin.v)
    proj = (np.eye(3) - np.outer(v, v)) / (kin.gamma * free_traj.mass)
    basis = jacobi_basis(free_traj, s)
    for t in (-1.0, -0.25, 0.0):
        X, K = basis(t)
        np.testing.assert_allclose(X, (t - s) * proj, rtol=0, atol=1e-10)
        np.testing.assert_allclose(K, np.eye(3), rtol=0, atol=1e-12)


def test_jacobi_matches_trajectory_differences(time_traj):
    """Kick response equals central differences of re-anchored trajectories."""
    eps = 1e-5
    basis = jacobi_basis(time_traj, 0.0)
    rng = np.random.default_rng(9)
    ts = rng.uniform(time_traj.t_min, -0.05, 8)
    scale = np.max(np.abs(basis(ts)[0]))
    for j in range(3):
        kick = np.eye(3)[j] * eps
        plus = integrate_trajectory(time_traj.profile, time_traj.p_final + kick,
                                    time_traj.mass, tol=1e-12)
        minus = integrate_trajectory(time_traj.profile, time_traj.p_final - kick,
                                     time_traj.mass, tol=1e-12)
        for t in ts:
            fd = (plus.position(t) - minus.position(t)) / (2 * eps)
            assert np.max(np.abs(basis(t)[0][:, j] - fd)) < 1e-5 * scale


def test_symplectic_product_antisymmetry(time_traj):
    basis = jacobi_basis(time_traj, -1.0)
    omega = symplectic_product(basis, basis, -0.4)
    assert np.array_equal(np.diag(omega), np.zeros(3))
    assert np.array_equal(omega, -omega.T)


def test_symplectic_product_matches_per_pair_row_dots(time_traj):
    """The batched product equals, bitwise, row dots of each field pair."""
    ts = np.linspace(time_traj.t_min, 0.0, 17)
    b1, b2 = jacobi_basis(time_traj, 0.0), jacobi_basis(time_traj, 0.5 * time_traj.t_min)
    (X1, K1), (X2, K2) = b1(ts), b2(ts)
    oracle = np.empty((ts.size, 3, 3))
    for i in range(3):
        for j in range(3):
            oracle[:, i, j] = (np.einsum("nk,nk->n", X1[:, :, i], K2[:, :, j])
                               - np.einsum("nk,nk->n", X2[:, :, j], K1[:, :, i]))
    assert np.array_equal(symplectic_product(b1, b2, ts), oracle)
    assert np.array_equal(symplectic_product(b1, b2, ts[5]), oracle[5])


def test_symplectic_product_conserved(time_traj):
    """Products between kick responses are constant along the flow of a
    trajectory built at tol 3e-13, the tail bound of its bases too."""
    traj = integrate_trajectory(time_traj.profile, time_traj.p_final, time_traj.mass, tol=3e-13)
    ts = np.linspace(traj.t_min, 0.0, 30)
    basis_0 = jacobi_basis(traj, 0.0)
    basis_u = jacobi_basis(traj, 0.5 * traj.t_min)
    vals = symplectic_product(basis_0, basis_u, ts)  # (t, i, j)
    drift = np.max(np.max(vals, axis=0) - np.min(vals, axis=0))
    assert drift < 1e-9 * np.max(np.abs(vals))


def test_swap_identity(time_traj):
    """-dx_(j)^i(s; u) = dx_(i)^j(u; s) on sampled time pairs."""
    pairs = [(-1.9, -0.3), (-1.4, -0.8), (-0.6, -1.8)]
    for s, u in pairs:
        left = -jacobi_basis(time_traj, u)(s)[0]   # [i, j]
        right = jacobi_basis(time_traj, s)(u)[0]   # [j, i]
        assert np.max(np.abs(left - right.T)) < 1e-7


def test_time_axis_momentum_response_constant(time_traj):
    """No x-dependence: dp stays equal to the kick everywhere."""
    ts = np.linspace(time_traj.t_min, 0.0, 25)
    K = jacobi_basis(time_traj, 0.0)(ts)[1]
    np.testing.assert_allclose(K, np.broadcast_to(np.eye(3), K.shape), rtol=0, atol=1e-11)


def test_perturbation_zero_coupling(time_traj):
    """alpha_c = 0 gives the zero perturbation identically."""
    pert = retarded_perturbation(time_traj, 0.0)
    assert np.array_equal(pert.final_shift, np.zeros(3))
    for t in (-1.5, -0.5, 0.0):
        assert np.array_equal(pert.delta_x(t), np.zeros(3))
        assert np.array_equal(pert.delta_p(t), np.zeros(3))


def test_perturbation_linear_in_coupling(time_traj):
    one = retarded_perturbation(time_traj, ALPHA)
    two = retarded_perturbation(time_traj, 2 * ALPHA)
    np.testing.assert_allclose(two.final_shift, 2 * one.final_shift, rtol=1e-10)


def test_perturbation_matches_green_quadrature(time_traj):
    """Direct integration and the kick-response quadrature agree to 1e-6."""
    direct = retarded_perturbation(time_traj, ALPHA).final_shift
    green = classical_shift_green(time_traj, ALPHA)
    assert np.max(np.abs(direct - green)) < 1e-6 * np.linalg.norm(green)


@pytest.mark.parametrize("name", ["pulse_single", "spatial"])
def test_variational_solves_restart_at_joins_and_carry_the_flow(name):
    """The basis's panel edges and the perturbation's steps hold acc_start,
    every breakpoint and acc_end; the perturbation's own (x, P) columns
    follow the trajectory."""
    traj = bundled_scenario(name).build()
    joins = [traj.acc_start, *traj.breakpoints, traj.acc_end]
    basis = jacobi_basis(traj, 0.0)
    pert = retarded_perturbation(traj, ALPHA)
    assert np.isin(joins, basis.ts).all()
    assert np.isin(joins, pert._dense.ts).all()
    flow = pert._dense(pert._dense.ts)[:, :6]
    x, P = traj.state(pert._dense.ts)
    np.testing.assert_allclose(flow, np.hstack([x, P]), rtol=0, atol=1e-8)


def test_jacobi_basis_fails_loudly_when_unresolved(time_traj, monkeypatch):
    """Degree-4 panels cannot meet tol even after every halving: the basis
    raises and names the panel and its tail instead of returning."""
    monkeypatch.setattr(dynamics, "_CHEB_DEGREE", 4)
    with pytest.raises(RuntimeError, match=r"Jacobi basis collocation failed: panel \d+ \[.*\] "
                                           r"keeps a relative Chebyshev tail"):
        jacobi_basis(time_traj, 0.0)


# every axis x every shape; on a spatial axis a the momentum's a component is 1.1
BASIS_CASES = [(axis, shape) for axis in ("time", "x", "y", "z") for shape in SHAPE_NAMES]


@cache
def case_trajectory(axis, shape):
    profile = make_profile(shape, axis)
    ai = axis_index(profile)
    p = P_FINAL["time"] if ai is None else np.roll(P_FINAL["z"], ai - 2)
    return integrate_trajectory(profile, p, 1.0)


def kick_times(traj):
    """s = 0, the middle of the widest acceleration panel and the middle of
    the coasting past."""
    i = int(np.argmax(np.diff(traj.ts)))
    return 0.0, 0.5 * (traj.ts[i] + traj.ts[i + 1]), 0.5 * (traj.t_min + traj.acc_start)


def fundamental_oracle(traj, tol=1e-12):
    """Evaluator ts -> Phi (N, 6, 6), the fundamental matrix of the unforced
    variational system on rows (dx, dP) with Phi(0) = I: DOP853 on Hamilton's
    equations for (x, P) and on Phi' = [[h_xp^T, h_pp], [-h_xx, -h_xp]] Phi,
    with the Hessian of H = sqrt((P - V)^2 + m^2) + V^0 written out from the
    carried (x, P), restarted at the trajectory's panel edges."""
    profile, m = traj.profile, traj.mass
    ai = axis_index(profile)
    e_a = np.zeros(3) if ai is None else np.eye(3)[ai]

    def rhs(t, y):
        P, Phi = y[3:6], y[6:].reshape(6, 6)
        s = np.array([t if ai is None else y[ai]])
        V, V1, V2 = (d[0] for d in _derivatives(profile, s, (0, 1, 2)))
        w = P - V[1:]
        sigma = np.sqrt(w @ w + m * m)
        v = w / sigma
        h_pp = (np.eye(3) - np.outer(v, v)) / sigma
        h_xp, h_xx = np.zeros((3, 3)), np.zeros((3, 3))
        if ai is not None:
            vdV1 = v @ V1[1:]
            h_xp[ai] = (-V1[1:] + v * vdV1) / sigma
            h_xx[ai, ai] = V2[0] - (w @ V2[1:] - V1[1:] @ V1[1:]) / sigma - vdV1**2 / sigma
        A = np.block([[h_xp.T, h_pp], [-h_xx, -h_xp]])
        return np.concatenate([v, e_a * (v @ V1[1:] - V1[0]), (A @ Phi).ravel()])

    y0 = np.concatenate([np.zeros(3), traj.p_final, np.eye(6).ravel()])
    dense = _DenseSolution(rhs, 0.0, y0, traj.t_min, 0.0, "oracle", joins=tuple(traj.ts),
                           rtol=tol, atol=tol)
    return lambda ts: dense(ts)[:, 6:].reshape(-1, 6, 6)


@pytest.mark.parametrize("axis, shape", BASIS_CASES)
def test_collocated_basis_matches_dop853_oracle(axis, shape):
    """X and K kicked at s equal Phi(t) Phi(s)^-1 (0, I) from the DOP853
    oracle to 1e-10 of each block's scale, at every kick time of
    `kick_times`, on a grid over [t_min, 0] and at the basis's panel edges."""
    traj = case_trajectory(axis, shape)
    phi = fundamental_oracle(traj)
    for s in kick_times(traj):
        basis = jacobi_basis(traj, s)
        ts = np.concatenate([np.linspace(traj.t_min, 0.0, 201), basis.ts, [s]])
        Y = phi(ts) @ np.linalg.solve(phi(np.array([s]))[0], np.eye(6)[:, 3:])
        for block, oracle in zip(basis(ts), (Y[:, :3], Y[:, 3:])):
            assert np.max(np.abs(block - oracle)) < 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize("axis, shape", BASIS_CASES)
def test_basis_coasts_exactly_outside_the_forcing(axis, shape):
    """Before acc_start and after acc_end, K is constant and X is the line
    X(t_b) + (t - t_b) h_pp K from the nearer end t_b, for every kick time."""
    traj = case_trajectory(axis, shape)
    for s in kick_times(traj):
        basis = jacobi_basis(traj, s)
        for ts, t_b in ((np.linspace(traj.t_min, traj.acc_start, 9), traj.acc_start),
                        (np.linspace(traj.acc_end, 0.0, 9), traj.acc_end)):
            X, K = basis(ts)
            X_b, K_b = basis(t_b)
            assert np.array_equal(K, np.broadcast_to(K_b, K.shape))
            h_pp = np.array([hamiltonian_hessian(traj, t).h_pp for t in ts])
            line = X_b + (ts - t_b)[:, None, None] * (h_pp @ K_b)
            assert np.max(np.abs(X - line)) < 1e-13 * max(np.max(np.abs(X)), 1.0)

"""Property tests of the unperturbed flow over the scenario contract: every
axis, every C^3 shape, speeds up to 0.95."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rrshift import PotentialProfile, integrate_trajectory
from rrshift.potentials import SHAPE_NAMES, axis_index, eval_potential

MAX_SPEED = 0.95
component = st.floats(-0.3, 0.3)
# fixed examples, so a Tier-1 run is reproducible; no example database
PROPERTY_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def flows(draw):
    """(profile, p_final) of one unit-mass flow inside the speed contract.
    The path's extremes come from scanning the shape's range g in [0, 1],
    since every shape is c g(s) with one scalar g."""
    axis = draw(st.sampled_from(("time", "x", "y", "z")))
    shape = draw(st.sampled_from(SHAPE_NAMES))
    ai = None if axis == "time" else "xyz".index(axis)
    p = np.array([draw(component) for _ in range(3)])
    vec = np.array([0.0 if ai is None else draw(st.floats(-0.2, 0.2)),
                    *(draw(component) for _ in range(3))])
    if ai is not None:
        p[ai] = draw(st.floats(0.3, 1.2))
    x2 = draw(st.floats(0.5, 1.5))
    x1 = x2 + draw(st.floats(0.5, 3.0))
    g = np.linspace(0.0, 1.0, 1001)[:, None]
    if ai is None:
        w = p - g * vec[1:]
        speed2 = np.einsum("ij,ij->i", w, w) / (np.einsum("ij,ij->i", w, w) + 1.0)
        axial = np.inf
    else:
        sigma = np.sqrt(p @ p + 1.0) - g[:, 0] * vec[0]
        perp = np.delete(p - g * vec[1:], ai, axis=1)
        axial2 = sigma**2 - 1.0 - np.einsum("ij,ij->i", perp, perp)
        speed2 = 1.0 - 1.0 / sigma**2
        axial = np.min(axial2) / np.max(sigma**2)
    # well clear of a reflection, where the traversal time diverges
    assume(np.max(speed2) <= MAX_SPEED**2 and axial > 0.01)
    if shape == "smoothstep7":
        profile = PotentialProfile(axis=axis, v_past=vec, x1=x1, x2=x2, shape=shape)
    else:
        profile = PotentialProfile(axis=axis, v_past=np.zeros(4), x1=x1, x2=x2, shape=shape,
                                   amplitude=vec)
    return profile, p


@settings(max_examples=40, **PROPERTY_SETTINGS)
@given(flows())
def test_first_integrals_hold_along_the_state(flow):
    """Time axis: P = p_final.  Spatial axis: H = sigma + V^0 and P_perp stay
    at their anchor values to 1e-13 relative."""
    profile, p = flow
    traj = integrate_trajectory(profile, p, 1.0)
    ts = np.concatenate([np.linspace(traj.t_min, 0.0, 201), traj.ts])
    x, P = traj.state(ts)
    ai = axis_index(profile)
    if ai is None:
        np.testing.assert_allclose(P, np.tile(p, (ts.size, 1)), rtol=0,
                                   atol=1e-13 * max(np.abs(p).max(), 1.0))
        return
    V = eval_potential(profile, x[:, ai])
    w = P - V[:, 1:]
    h = np.sqrt(np.einsum("ij,ij->i", w, w) + 1.0) + V[:, 0]
    h0 = np.sqrt(p @ p + 1.0)
    np.testing.assert_allclose(h, h0, rtol=1e-13)
    perp = np.delete(P, ai, axis=1) - np.delete(p, ai)
    assert np.max(np.abs(perp)) <= 1e-13 * max(np.abs(p).max(), 1.0)


@settings(max_examples=30, **PROPERTY_SETTINGS)
@given(flows(), st.permutations([0, 1, 2]))
def test_relabelling_the_axes_permutes_the_path(flow, perm):
    """Moving spatial component i to perm[i] in p_final, in the potential and
    in its axis label moves x^i(t) to x^perm[i](t), to 1e-13."""
    profile, p = flow
    ai = axis_index(profile)
    order = np.argsort(perm)  # new component j is old component order[j]
    axis = profile.axis if ai is None else "xyz"[perm[ai]]

    def relabel(vec):
        return None if vec is None else np.concatenate([vec[:1], vec[1:][order]])

    moved = PotentialProfile(axis=axis, v_past=relabel(profile.v_past), x1=profile.x1,
                             x2=profile.x2, shape=profile.shape,
                             amplitude=relabel(profile.amplitude))
    traj = integrate_trajectory(profile, p, 1.0)
    twin = integrate_trajectory(moved, p[order], 1.0)
    ts = np.linspace(1.5 * traj.t_min, 0.5, 201)
    x, x_moved = traj.position(ts), twin.position(ts)
    np.testing.assert_allclose(x_moved, x[:, order], rtol=0,
                               atol=1e-13 * max(np.abs(x).max(), 1.0))

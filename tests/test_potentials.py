"""Potential profiles: constant regions, smooth joins, gradient consistency."""

import numpy as np

from rrshift import PotentialProfile, eval_potential, validate_profile
from rrshift.potentials import SHAPE_NAMES, eval_derivative

PROFILE = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3], x1=2.0, x2=1.0)


def test_constant_regions_exact():
    """Past region returns v_past bitwise, future region returns zero bitwise."""
    assert eval_potential(PROFILE, -3.0).tolist() == [0.0, 0.2, 0.0, 0.3]
    assert eval_potential(PROFILE, 0.5).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_transition_midpoint_symmetry():
    """The odd-symmetric shape passes through v_past/2 at the midpoint."""
    mid = eval_potential(PROFILE, -1.5)
    np.testing.assert_allclose(mid, [0.0, 0.1, 0.0, 0.15], rtol=0, atol=1e-15)


def test_region_exactness_sweep():
    """10^4 random points outside the transition hit the constants bitwise."""
    rng = np.random.default_rng(3)
    s_past = rng.uniform(-50.0, -2.0, 5000)
    s_zero = rng.uniform(-1.0, 50.0, 5000)
    vp = np.asarray(PROFILE.v_past, dtype=float)
    assert np.array_equal(eval_potential(PROFILE, s_past), np.tile(vp, (5000, 1)))
    assert np.array_equal(eval_potential(PROFILE, s_zero), np.zeros((5000, 4)))


def test_gradient_matches_finite_differences():
    """Central differences of the potential reproduce the gradient to 1e-8."""
    rng = np.random.default_rng(11)
    h = 1e-6
    for s in rng.uniform(-2.0, -1.0, 100):
        fd = (eval_potential(PROFILE, s + h) - eval_potential(PROFILE, s - h)) / (2 * h)
        np.testing.assert_allclose(eval_derivative(PROFILE, s, 1), fd, rtol=0, atol=1e-8)


def test_gradient_zero_outside_transition():
    assert np.array_equal(eval_derivative(PROFILE, -3.0, 1), np.zeros(4))
    assert np.array_equal(eval_derivative(PROFILE, 0.5, 1), np.zeros(4))


def test_joins_are_c3():
    """Value and first three derivatives are continuous at both joins."""
    interior = np.linspace(-1.95, -1.05, 200)
    for order in range(4):
        scale = np.max(np.abs(eval_derivative(PROFILE, interior, order=order)))
        for join in (-PROFILE.x1, -PROFILE.x2):
            left = eval_derivative(PROFILE, join - 1e-9, order=order)
            right = eval_derivative(PROFILE, join + 1e-9, order=order)
            assert np.max(np.abs(left - right)) < 1e-6 * scale


def test_smooth_shapes_validate():
    for shape in ("smoothstep7", "bump", "double_bump"):
        if shape == "smoothstep7":
            prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                                    x1=2.0, x2=1.0, shape=shape)
        else:
            prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0],
                                    x1=5.0, x2=1.0, shape=shape,
                                    amplitude=[0.0, 0.1, 0.0, 0.0])
        rep = validate_profile(prof)
        assert rep.ok, (shape, rep.failures)


def test_raised_cosine_fails_smoothness_check():
    """raised_cosine is selectable but only C1, so validation flags the joins."""
    assert "raised_cosine" in SHAPE_NAMES
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                            x1=2.0, x2=1.0, shape="raised_cosine")
    rep = validate_profile(prof)
    assert not rep.ok
    assert any("not C3" in f for f in rep.failures)
    # the shape itself still evaluates
    assert np.all(np.isfinite(eval_potential(prof, -1.5)))


def test_bump_shapes_require_amplitude():
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                            x1=5.0, x2=1.0, shape="bump")
    rep = validate_profile(prof)
    assert not rep.ok
    assert any("amplitude" in f for f in rep.failures)


def test_validate_collects_all_failures():
    """A degenerate region and a gauged time component are both reported."""
    bad = PotentialProfile(axis="time", v_past=[0.1, 0.2, 0.0, 0.3], x1=2.0, x2=2.0)
    rep = validate_profile(bad)
    assert not rep.ok
    text = " ".join(rep.failures)
    assert "degenerate transition region" in text
    assert "time component" in text


def test_vectorized_matches_scalar():
    ss = np.linspace(-3.0, 0.5, 57)
    vals = eval_potential(PROFILE, ss)
    assert vals.shape == (57, 4)
    for i, s in enumerate(ss):
        assert np.array_equal(vals[i], eval_potential(PROFILE, s))

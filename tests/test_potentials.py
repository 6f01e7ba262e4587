"""Potential profiles: constant regions, smooth joins, gradient consistency,
and the shape table's smoothness, joins and scale rules."""

import numpy as np
import pytest

from rrshift import (PotentialProfile, ScenarioError, eval_potential, scenario_from_dict,
                     validate_profile)
from rrshift.dynamics import _cheb_operators
from rrshift.potentials import (SHAPE_NAMES, _derivatives, _shape_joins, _shape_values,
                                eval_derivative)

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
    for shape in SHAPE_NAMES:
        if shape == "smoothstep7":
            prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                                    x1=2.0, x2=1.0, shape=shape)
        else:
            prof = PotentialProfile(axis="time", v_past=[0.0, 0.0, 0.0, 0.0],
                                    x1=5.0, x2=1.0, shape=shape,
                                    amplitude=[0.0, 0.1, 0.0, 0.0])
        rep = validate_profile(prof)
        assert rep.ok, (shape, rep.failures)


def c3_defects(fn):
    """The orders 1-3 of fn (u -> the shape and its first three derivatives)
    that do not vanish at u = 0 and 1 to 1e-10 of their largest value on 2001
    points of [0, 1]."""
    interior = fn(np.linspace(0.0, 1.0, 2001))
    ends = fn(np.array([0.0, 1.0]))
    return [order for order in (1, 2, 3)
            if np.max(np.abs(ends[order])) > 1e-10 * np.max(np.abs(interior[order]))]


def raised_cosine(u):
    """A ramp that is only C^1 at its ends: its second derivative is pi^2/2 there."""
    return (0.5 * (1.0 - np.cos(np.pi * u)), 0.5 * np.pi * np.sin(np.pi * u),
            0.5 * np.pi**2 * np.cos(np.pi * u), -0.5 * np.pi**3 * np.sin(np.pi * u))


def test_table_shapes_are_c3_at_their_ends():
    """Every shape a profile can name meets the constant regions C^3, so the
    particle's jerk and the self-force stay continuous."""
    for shape in SHAPE_NAMES:
        assert c3_defects(lambda u: _shape_values(shape, u)) == [], shape


def test_raised_cosine_fails_smoothness_check():
    """The C^3 criterion flags a C^1 ramp, and no profile can name one."""
    assert c3_defects(raised_cosine) == [2]
    assert "raised_cosine" not in SHAPE_NAMES
    pot = {"axis": "time", "v_past": [0.0, 0.2, 0.0, 0.3], "x1": 2.0, "x2": 1.0,
           "shape": "raised_cosine"}
    with pytest.raises(ScenarioError, match="unknown shape 'raised_cosine'"):
        scenario_from_dict({"mass": 1.0, "charge": 0.3, "p_final": [0.0, 0.0, 0.5],
                            "potential": pot})


def chebyshev_tail(shape, a, b):
    """Relative tail of the degree-32 Chebyshev interpolant of the shape on
    [a, b] in u: its two highest coefficients against its largest."""
    x, _, to_coefs = _cheb_operators(32)
    mags = np.abs(to_coefs @ _shape_values(shape, a + 0.5 * (b - a) * (x + 1.0))[0])
    return mags[-2:].max() / mags.max() if mags.any() else 0.0


@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_shape_joins_bound_the_smooth_pieces(shape):
    """Between consecutive joins the shape is one polynomial, resolved to
    rounding; a piece that straddles an interior join is not, so a missing or
    misplaced join fails here."""
    points = (0.0, *_shape_joins(shape), 1.0)
    for a, b in zip(points, points[1:]):
        assert chebyshev_tail(shape, a, b) < 1e-13, (a, b)
    for a, b in zip(points, points[2:]):
        assert chebyshev_tail(shape, a, b) > 1e-9, (a, b)


def test_bump_shapes_require_amplitude():
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3],
                            x1=5.0, x2=1.0, shape="bump")
    rep = validate_profile(prof)
    assert not rep.ok
    assert any("amplitude" in f for f in rep.failures)


def test_scale_follows_the_shape_kind():
    """A pulse needs a finite four-vector amplitude; a transition takes none."""
    for amplitude in ([0.0, np.nan, 0.0, 0.1], [0.0, 0.1, np.inf, 0.0], [0.1, 0.2, 0.3]):
        prof = PotentialProfile(axis="z", v_past=np.zeros(4), x1=5.0, x2=1.0, shape="bump",
                                amplitude=amplitude)
        assert validate_profile(prof).failures == (
            "shape 'bump' requires a finite four-vector amplitude",)
    prof = PotentialProfile(axis="time", v_past=[0.0, 0.2, 0.0, 0.3], x1=2.0, x2=1.0,
                            amplitude=[0.0, 5.0, 5.0, 5.0])
    assert validate_profile(prof).failures == (
        "shape 'smoothstep7' takes no amplitude: v_past scales it",)
    pot = {"axis": "z", "v_past": [0.0, 0.0, 0.0, 0.0], "x1": 2.0, "x2": 1.0,
           "amplitude": [0.0, 5.0, 5.0, 5.0]}
    with pytest.raises(ScenarioError, match="'smoothstep7' takes no amplitude"):
        scenario_from_dict({"mass": 1.0, "charge": 0.3, "p_final": [0.0, 0.0, 0.5],
                            "potential": pot})


def test_unvalidated_profiles_raise_on_evaluation():
    """Evaluation checks the two things it needs, without validate_profile."""
    unknown = PotentialProfile(axis="time", v_past=np.zeros(4), x1=2.0, x2=1.0, shape="ramp")
    bare = PotentialProfile(axis="time", v_past=np.zeros(4), x1=2.0, x2=1.0, shape="bump")
    for prof, message in ((unknown, "unknown shape 'ramp'"), (bare, "requires an amplitude")):
        for evaluate in (eval_potential, lambda p, s: eval_derivative(p, s, 2),
                         lambda p, s: _derivatives(p, s, (0, 1))):
            with pytest.raises(ValueError, match=message):
                evaluate(prof, -1.5)


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

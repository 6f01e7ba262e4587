"""One-coordinate electromagnetic potential profiles.

A profile describes a four-potential V^mu that depends on a single spacetime
coordinate x^a (coordinate time or one spatial axis, units c=1, metric
+---).  It is constant in the far past of the traversal and vanishes after
it:

    V^mu(s) = v_past^mu   for s <= -x1,
    V^mu(s) = 0           for s >= -x2,      x1 > x2 > 0,

with a C^3 interpolation on (-x1, -x2) so the particle jerk, and hence the
radiation-reaction force, stays continuous.  The charge is absorbed into
V^mu: it is the full potential energy seen by the particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

__all__ = [
    "PotentialProfile",
    "ValidationReport",
    "eval_potential",
    "eval_derivative",
    "validate_profile",
    "axis_index",
    "SHAPE_NAMES",
]

_AXES = ("time", "x", "y", "z")
_SPATIAL_INDEX = {"x": 0, "y": 1, "z": 2}

# Transition shapes ramp 0 -> 1 across u in [0, 1]; pulse shapes return to
# zero at u = 1.  Each entry maps u (array) -> (f, f', f'', f''') in u-units.


def _smoothstep7(u: np.ndarray):
    # 35u^4 - 84u^5 + 70u^6 - 20u^7: first three derivatives vanish at 0, 1
    # and f(u) + f(1-u) = 1 (odd-symmetric about the midpoint).
    f = u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
    d1 = 140.0 * u**3 * (1.0 - u) ** 3
    d2 = 420.0 * u**2 * (1.0 - u) ** 2 * (1.0 - 2.0 * u)
    d3 = 840.0 * u * (1.0 - u) * (1.0 - 5.0 * u + 5.0 * u**2)
    return f, d1, d2, d3


def _raised_cosine(u: np.ndarray):
    # C^1 only: the second derivative does not vanish at the joins.  Kept as
    # a selectable alternative; validate_profile reports the defect.
    f = 0.5 * (1.0 - np.cos(np.pi * u))
    d1 = 0.5 * np.pi * np.sin(np.pi * u)
    d2 = 0.5 * np.pi**2 * np.cos(np.pi * u)
    d3 = -0.5 * np.pi**3 * np.sin(np.pi * u)
    return f, d1, d2, d3


def _bump_window(u: np.ndarray, lo: float, hi: float):
    """C^3 pulse supported on [lo, hi] in u, peak value 1 at the middle."""
    span = hi - lo
    t = np.clip((np.asarray(u, dtype=float) - lo) / span, 0.0, 1.0)
    up = 2.0 * t
    down = 2.0 - 2.0 * t
    rising = t < 0.5
    arg = np.where(rising, up, down)
    f, d1, d2, d3 = _smoothstep7(arg)
    sgn = np.where(rising, 1.0, -1.0)
    # chain rule for arg = 2t/span (sign flips per derivative on the way down)
    c = 2.0 / span
    d1 = sgn * d1 * c
    d2 = d2 * c**2
    d3 = sgn * d3 * c**3
    inside = (t > 0.0) & (t < 1.0)
    zero = np.zeros_like(f)
    return (
        np.where(inside, f, zero),
        np.where(inside, d1, zero),
        np.where(inside, d2, zero),
        np.where(inside, d3, zero),
    )


def _bump(u: np.ndarray):
    return _bump_window(u, 0.0, 1.0)


def _double_bump(u: np.ndarray):
    # two identical, well-separated copies of the single pulse
    a = _bump_window(u, 0.0, 0.25)
    b = _bump_window(u, 0.75, 1.0)
    return tuple(x + y for x, y in zip(a, b))


_TRANSITION_SHAPES = {"smoothstep7": _smoothstep7, "raised_cosine": _raised_cosine}
_PULSE_SHAPES = {"bump": _bump, "double_bump": _double_bump}
SHAPE_NAMES = tuple(_TRANSITION_SHAPES) + tuple(_PULSE_SHAPES)


@dataclass(frozen=True)
class PotentialProfile:
    """Immutable description of a one-coordinate potential.

    axis: "time" or one of "x", "y", "z" (which coordinate V depends on).
    v_past: asymptotic four-vector value in the far past, index 0 = time.
    x1, x2: region bounds, x1 > x2 > 0; V is constant for s <= -x1 and zero
        for s >= -x2.
    shape: transition-shape name, see SHAPE_NAMES.
    amplitude: per-component scale for pulse shapes (ignored by transition
        shapes, which are scaled by v_past itself).
    """

    axis: str
    v_past: np.ndarray
    x1: float
    x2: float
    shape: str = "smoothstep7"
    amplitude: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "v_past", np.asarray(self.v_past, dtype=float))
        if self.amplitude is not None:
            object.__setattr__(self, "amplitude", np.asarray(self.amplitude, dtype=float))
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))

    @property
    def width(self) -> float:
        return self.x1 - self.x2


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)


def axis_index(profile: PotentialProfile) -> int | None:
    """Spatial index the potential depends on, or None for coordinate time."""
    return _SPATIAL_INDEX.get(profile.axis)


def _shape_fn(profile: PotentialProfile):
    if profile.shape in _TRANSITION_SHAPES:
        return _TRANSITION_SHAPES[profile.shape], False
    if profile.shape in _PULSE_SHAPES:
        return _PULSE_SHAPES[profile.shape], True
    raise ValueError(f"unknown shape {profile.shape!r}")


def _component_scale(profile: PotentialProfile, pulse: bool) -> np.ndarray:
    if pulse:
        if profile.amplitude is None:
            raise ValueError(f"shape {profile.shape!r} requires an amplitude vector")
        return profile.amplitude
    return profile.v_past


def _derivatives(profile: PotentialProfile, s, orders) -> list[np.ndarray]:
    """d^n V^mu / ds^n for each n in `orders`, from one shape evaluation.

    Each entry has shape s.shape + (4,), with a scalar s taken as shape (1,).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(s_arr)):
        raise ValueError("non-finite coordinate value")

    fn, pulse = _shape_fn(profile)
    amp = _component_scale(profile, pulse)
    width = profile.width
    u = (s_arr + profile.x1) / width
    derivs = fn(np.clip(u, 0.0, 1.0))
    inside = (s_arr > -profile.x1) & (s_arr < -profile.x2)

    out = []
    for order in orders:
        if order == 0:
            if pulse:
                shape_vals = np.where(inside, derivs[0], 0.0)
            else:
                # v_past for s <= -x1, ramp down to 0 at -x2
                shape_vals = np.where(inside, 1.0 - derivs[0],
                                      np.where(s_arr <= -profile.x1, 1.0, 0.0))
        else:
            sign = 1.0 if pulse else -1.0
            shape_vals = np.where(inside, derivs[order], 0.0) * sign / width**order
        out.append(shape_vals[..., None] * amp[None, :])
    return out


def eval_derivative(profile: PotentialProfile, s, order: int = 0) -> np.ndarray:
    """d^n V^mu / ds^n at coordinate value(s) s, order 0..3.

    Exact (bitwise) constants outside the open transition interval.
    Scalars map to shape (4,), arrays of shape (N,) to (N, 4).
    """
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    out = _derivatives(profile, s, (order,))[0]
    return out[0] if np.ndim(s) == 0 else out


def eval_potential(profile: PotentialProfile, s) -> np.ndarray:
    """V^mu at coordinate value(s) s."""
    return eval_derivative(profile, s, order=0)


def validate_profile(profile: PotentialProfile) -> ValidationReport:
    """Check region geometry, gauge condition, and C^3 joins.

    Collects every failure rather than stopping at the first.
    """
    failures: list[str] = []

    if not (np.isfinite(profile.x1) and np.isfinite(profile.x2)):
        failures.append("region bounds must be finite")
    elif not (profile.x1 > profile.x2 > 0.0):
        failures.append(
            f"degenerate transition region: need x1 > x2 > 0, got x1={profile.x1}, x2={profile.x2}"
        )

    if profile.axis not in _AXES:
        failures.append(f"unknown axis {profile.axis!r}")
    if profile.v_past.shape != (4,):
        failures.append("v_past must be a four-vector")
    elif not np.all(np.isfinite(profile.v_past)):
        failures.append("v_past must be finite")

    pulse = profile.shape in _PULSE_SHAPES
    if profile.shape not in SHAPE_NAMES:
        failures.append(f"unknown shape {profile.shape!r}")
    if pulse:
        if profile.amplitude is None or profile.amplitude.shape != (4,):
            failures.append(f"shape {profile.shape!r} requires a four-vector amplitude")
        elif profile.v_past.shape == (4,) and np.any(profile.v_past != 0.0):
            failures.append("pulse shapes require v_past = 0 (potential returns to the past value)")

    amp = None
    if not failures or profile.shape in SHAPE_NAMES:
        try:
            amp = _component_scale(profile, pulse)
        except ValueError as exc:
            amp = None
            if not any("amplitude" in f for f in failures):
                failures.append(str(exc))

    if profile.axis == "time":
        v0 = profile.v_past[0] if profile.v_past.shape == (4,) else 0.0
        a0 = amp[0] if (amp is not None and amp.shape == (4,)) else 0.0
        if v0 != 0.0 or (pulse and a0 != 0.0):
            failures.append("time component must be gauged away for a time-dependent potential")

    # C^3 joins: shape derivatives at u = 0, 1 must vanish relative to the
    # interior scale of each derivative order.
    if profile.shape in SHAPE_NAMES and not any("degenerate" in f for f in failures):
        fn, _ = _shape_fn(profile)
        u_grid = np.linspace(0.0, 1.0, 2001)
        interior = fn(u_grid)
        ends = fn(np.array([0.0, 1.0]))
        for order in (1, 2, 3):
            scale = float(np.max(np.abs(interior[order])))
            if scale == 0.0:
                continue
            worst = float(np.max(np.abs(ends[order])))
            if worst > 1e-10 * scale:
                failures.append(
                    f"shape {profile.shape!r} is not C3 at the joins "
                    f"(order-{order} derivative {worst:.3e} vs interior scale {scale:.3e})"
                )

    return ValidationReport(ok=not failures, failures=tuple(failures))

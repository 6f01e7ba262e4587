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

# Each shape maps u (array in [0, 1]) -> (f, f', f'', f''') in u-units.


def _smoothstep7(u: np.ndarray):
    # 35u^4 - 84u^5 + 70u^6 - 20u^7: first three derivatives vanish at 0, 1
    # and f(u) + f(1-u) = 1 (odd-symmetric about the midpoint).
    f = u**4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
    d1 = 140.0 * u**3 * (1.0 - u) ** 3
    d2 = 420.0 * u**2 * (1.0 - u) ** 2 * (1.0 - 2.0 * u)
    d3 = 840.0 * u * (1.0 - u) * (1.0 - 5.0 * u + 5.0 * u**2)
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


# The one list of shapes.  The transition smoothstep7 (None) ramps 0 -> 1 and
# is scaled by v_past; a pulse is the sum of `_bump_window` pulses on its
# sub-windows of [0, 1], returns to zero at u = 1 and is scaled by amplitude.
_SHAPES = {
    "smoothstep7": None,
    "bump": ((0.0, 1.0),),
    "double_bump": ((0.0, 0.25), (0.75, 1.0)),
}
SHAPE_NAMES = tuple(_SHAPES)


def _shape_values(shape: str, u: np.ndarray):
    """(f, f', f'', f''') of a table shape at u in [0, 1]."""
    windows = _SHAPES[shape]
    if windows is None:
        return _smoothstep7(u)
    out = _bump_window(u, *windows[0])  # a sum from 0 would turn -0.0 into +0.0
    for lo, hi in windows[1:]:
        out = tuple(x + y for x, y in zip(out, _bump_window(u, lo, hi)))
    return out


def _shape_joins(shape: str) -> tuple[float, ...]:
    """Interior joins in u of a table shape, where the panel engine must cut:
    each pulse window's midpoint and ends strictly inside (0, 1)."""
    return tuple(sorted({u for lo, hi in _SHAPES[shape] or ()
                         for u in (lo, 0.5 * (lo + hi), hi) if 0.0 < u < 1.0}))


@dataclass(frozen=True)
class PotentialProfile:
    """Immutable description of a one-coordinate potential.

    axis: "time" or one of "x", "y", "z" (which coordinate V depends on).
    v_past: asymptotic four-vector value in the far past, index 0 = time.
    x1, x2: region bounds, x1 > x2 > 0; V is constant for s <= -x1 and zero
        for s >= -x2.
    shape: shape name, see SHAPE_NAMES.  The transition smoothstep7 is scaled
        by v_past itself; the pulses bump and double_bump return to zero.
    amplitude: per-component scale, a finite four-vector that a pulse needs
        (with v_past = 0) and a transition must not be given.
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


def _derivatives(profile: PotentialProfile, s, orders) -> list[np.ndarray]:
    """d^n V^mu / ds^n for each n in `orders`, from one shape evaluation.

    Each entry has shape s.shape + (4,), with a scalar s taken as shape (1,).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(s_arr)):
        raise ValueError("non-finite coordinate value")

    if profile.shape not in _SHAPES:
        raise ValueError(f"unknown shape {profile.shape!r}")
    pulse = _SHAPES[profile.shape] is not None
    amp = profile.amplitude if pulse else profile.v_past
    if amp is None:
        raise ValueError(f"shape {profile.shape!r} requires an amplitude vector")
    width = profile.width
    u = (s_arr + profile.x1) / width
    derivs = _shape_values(profile.shape, np.clip(u, 0.0, 1.0))
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
    """Check the region bounds, the axis, v_past, the shape name, the scale
    that the shape's kind takes and the time-axis gauge.  Every table shape
    is C^3 at its ends (a test checks this), so no shape is evaluated here.

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

    amp = profile.amplitude
    pulse = _SHAPES.get(profile.shape) is not None
    if profile.shape not in _SHAPES:
        failures.append(f"unknown shape {profile.shape!r}")
    elif not pulse and amp is not None:
        failures.append(f"shape {profile.shape!r} takes no amplitude: v_past scales it")
    elif pulse and (amp is None or amp.shape != (4,) or not np.all(np.isfinite(amp))):
        failures.append(f"shape {profile.shape!r} requires a finite four-vector amplitude")
    elif pulse and profile.v_past.shape == (4,) and np.any(profile.v_past != 0.0):
        failures.append("pulse shapes require v_past = 0 (potential returns to the past value)")

    if profile.axis == "time":
        v0 = profile.v_past[0] if profile.v_past.shape == (4,) else 0.0
        a0 = amp[0] if (pulse and amp is not None and amp.shape == (4,)) else 0.0
        if v0 != 0.0 or a0 != 0.0:
            failures.append("time component must be gauged away for a time-dependent potential")

    return ValidationReport(ok=not failures, failures=tuple(failures))

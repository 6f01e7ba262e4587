"""Scenario files: the single JSON schema every CLI entry point consumes.

A scenario pins the potential profile, the particle (mass, charge, anchor
momentum), integration/quadrature knobs, and the acceptance threshold.
Validation is collective: every offending key is reported in one error, so
a bad file round-trips to a single actionable message.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import Trajectory, integrate_trajectory
from .potentials import PotentialProfile, SHAPE_NAMES, validate_profile
from .semiclassical import CutoffWindow, default_window

__all__ = ["Scenario", "ScenarioError", "bundled_scenario", "load_scenario",
           "scenario_from_dict"]

MAX_SPEED = 0.95  # build-time guard: faster trajectories are out of contract


class ScenarioError(ValueError):
    """Invalid scenario input; carries the full list of problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


@dataclass(frozen=True)
class Scenario:
    profile: PotentialProfile
    mass: float
    charge: float
    p_final: np.ndarray
    name: str = ""
    tol: float = 1e-10
    residual_threshold: float = 1e-4
    n_polar: int = 64
    n_azimuth: int = 128
    epsrel: float = 1e-11
    hbars: tuple = (0.1, 0.05, 0.025)
    seed: int = 0
    pad_fraction: float = 0.5
    width_fraction: float = 0.5
    raw: dict = field(default_factory=dict, compare=False)

    @property
    def alpha_c(self) -> float:
        """Coupling e^2 / 4 pi in Heaviside-Lorentz units."""
        return self.charge**2 / (4.0 * np.pi)

    def build(self) -> Trajectory:
        """Integrate the trajectory and enforce the speed contract."""
        traj = integrate_trajectory(self.profile, self.p_final, self.mass, tol=self.tol)
        ts = np.linspace(traj.t_min, 0.0, 1025)
        vmax = float(np.max(np.linalg.norm(traj.velocity(ts), axis=1)))
        if vmax > MAX_SPEED:
            raise ScenarioError(
                [f"trajectory reaches speed {vmax:.4f}, above the supported {MAX_SPEED}"]
            )
        return traj

    def window(self, traj: Trajectory) -> CutoffWindow:
        return default_window(traj, pad_fraction=self.pad_fraction,
                              width_fraction=self.width_fraction)


# the optional scenario keys and their defaults: the Scenario fields with a default value
_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}
_KNOWN_KEYS = {"mass", "charge", "p_final", "potential"} | set(_DEFAULTS)
_POTENTIAL_KEYS = {"axis", "v_past", "x1", "x2", "shape", "amplitude"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _number_list(x, length) -> bool:
    return (isinstance(x, (list, tuple)) and len(x) == length
            and all(_is_number(v) for v in x))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    problems = []

    for key in sorted(set(data) - _KNOWN_KEYS):
        problems.append(f"unknown key '{key}'")

    mass = data.get("mass")
    if mass is None:
        problems.append("missing key 'mass'")
    elif not _is_number(mass) or mass <= 0.0:
        problems.append("'mass' must be a positive number")

    charge = data.get("charge")
    if charge is None:
        problems.append("missing key 'charge'")
    elif not _is_number(charge):
        problems.append("'charge' must be a number")

    p_final = data.get("p_final")
    if p_final is None:
        problems.append("missing key 'p_final'")
    elif not _number_list(p_final, 3):
        problems.append("'p_final' must be a list of 3 finite numbers")

    profile = None
    pot = data.get("potential")
    if pot is None:
        problems.append("missing key 'potential'")
    elif not isinstance(pot, dict):
        problems.append("'potential' must be an object")
    else:
        for key in sorted(set(pot) - _POTENTIAL_KEYS):
            problems.append(f"unknown key 'potential.{key}'")
        ok = True
        if not isinstance(pot.get("axis"), str):
            problems.append("'potential.axis' must be one of time, x, y, z")
            ok = False
        if not _number_list(pot.get("v_past"), 4):
            problems.append("'potential.v_past' must be a list of 4 finite numbers")
            ok = False
        for key in ("x1", "x2"):
            if not _is_number(pot.get(key)):
                problems.append(f"'potential.{key}' must be a number")
                ok = False
        shape = pot.get("shape", "smoothstep7")
        if not isinstance(shape, str):
            problems.append(f"'potential.shape' must be one of {', '.join(SHAPE_NAMES)}")
            ok = False
        amplitude = pot.get("amplitude")
        if amplitude is not None and not _number_list(amplitude, 4):
            problems.append("'potential.amplitude' must be a list of 4 finite numbers")
            ok = False
        if ok:
            profile = PotentialProfile(
                axis=pot["axis"],
                v_past=np.asarray(pot["v_past"], dtype=float),
                x1=float(pot["x1"]),
                x2=float(pot["x2"]),
                shape=shape,
                amplitude=(None if amplitude is None
                           else np.asarray(amplitude, dtype=float)),
            )
            rep = validate_profile(profile)
            if not rep.ok:
                problems.extend(f"potential: {msg}" for msg in rep.failures)
                profile = None

    opts = {}
    checks = {
        "name": (lambda v: isinstance(v, str), "a string"),
        "tol": (lambda v: _is_number(v) and 0.0 < v <= 1e-4, "a number in (0, 1e-4]"),
        "residual_threshold": (lambda v: _is_number(v) and v > 0.0, "a positive number"),
        "n_polar": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 4,
                    "an integer >= 4"),
        "n_azimuth": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 4,
                      "an integer >= 4"),
        "epsrel": (lambda v: _is_number(v) and 0.0 < v <= 1e-6, "a number in (0, 1e-6]"),
        "hbars": (lambda v: isinstance(v, (list, tuple)) and len(v) >= 2
                  and all(_is_number(h) and h > 0.0 for h in v),
                  "a list of >= 2 positive numbers"),
        "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                 "a non-negative integer"),
        "pad_fraction": (lambda v: _is_number(v) and v > 0.0, "a positive number"),
        "width_fraction": (lambda v: _is_number(v) and v > 0.0, "a positive number"),
    }
    for key, (good, desc) in checks.items():
        if key in data:
            if good(data[key]):
                opts[key] = data[key]
            else:
                problems.append(f"'{key}' must be {desc}")

    tol_ok = "tol" not in data or "tol" in opts
    thresh_ok = "residual_threshold" not in data or "residual_threshold" in opts
    if tol_ok and thresh_ok:
        tol = opts.get("tol", _DEFAULTS["tol"])
        thresh = opts.get("residual_threshold", _DEFAULTS["residual_threshold"])
        if thresh < 10.0 * tol:
            problems.append(
                f"'residual_threshold' ({thresh:g}) must be at least 10 x tol ({tol:g})"
            )

    if problems:
        raise ScenarioError(problems)

    kwargs = dict(_DEFAULTS)
    kwargs.update(opts)
    kwargs["hbars"] = tuple(float(h) for h in kwargs["hbars"])
    return Scenario(
        profile=profile,
        mass=float(mass),
        charge=float(charge),
        p_final=np.asarray(p_final, dtype=float),
        raw=dict(data),
        **kwargs,
    )


def load_scenario(source) -> Scenario:
    """Build a Scenario from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        return scenario_from_dict(source)
    text, path = str(source), None
    try:
        exists = Path(text).exists()
    except OSError:  # inline JSON too long for a file name
        exists = False
    if exists:
        try:
            path, text = text, Path(text).read_text()
        except OSError as exc:
            raise ScenarioError([f"cannot read scenario file {text}: {exc}"]) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        if path is not None:
            raise ScenarioError([f"scenario file {path} is not valid JSON: {exc}"]) from None
        if "{" not in text:  # looked like a file path, not inline JSON
            raise ScenarioError([f"scenario file not found: {text}"]) from None
        raise ScenarioError([f"not valid JSON: {exc}"]) from None
    return scenario_from_dict(data)


def bundled_scenario(name: str, **overrides) -> Scenario:
    """Build one of the scenarios shipped with the package, with keys replaced
    by `overrides` before validation."""
    path = resources.files(__package__) / "scenarios" / f"{name}.json"
    if not path.is_file():
        raise ScenarioError([f"unknown bundled scenario '{name}'"])
    return scenario_from_dict({**json.loads(path.read_text()), **overrides})

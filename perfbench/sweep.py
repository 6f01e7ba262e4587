"""Seeded scenario draws for the `sweep` workload.

One draw per (axis, shape) pair, 12 in all.  Every draw is checked against
the scenario contract, with margin, before it is handed to the program: the
checks use numpy only and never call rrshift, so a draw is accepted or
redrawn on its inputs alone.  A draw that fails after it has run is a
failure of the program and is never redrawn.

Every shape is c * g(s) with a scalar g(s) that sweeps [0, 1] (the step
falls monotonically from 1 to 0, each pulse rises to 1 and returns to 0), so
the extremes of speed and axial momentum along the whole path are found by
scanning g over [0, 1], whatever the shape.
"""

from __future__ import annotations

import numpy as np

AXES = ("time", "x", "y", "z")
SHAPES = ("smoothstep7", "bump", "double_bump")

# The program rejects speeds above 0.95; draws stay below this cap.
SPEED_CAP = 0.85
# Spatial axes: the axial velocity must stay above this floor everywhere,
# so no draw comes near a reflection (dx^a/dt = 0).
AXIAL_FLOOR = 0.3

# Region width x1 - x2 per shape.  Each of the double bump's two pulses
# fills only a quarter of its region, so it gets the widest one.
_WIDTH = {"smoothstep7": (0.8, 1.2), "bump": (1.0, 2.0), "double_bump": (3.0, 4.0)}
_G = np.linspace(0.0, 1.0, 1001)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def path_extremes(scenario: dict) -> tuple[float, float]:
    """(maximum speed, minimum axial velocity) over the whole path.

    The axial velocity is reported as +inf for a time-axis potential.
    Time axis: canonical momentum P = p_final is conserved, w = P - V.
    Spatial axis a: energy E and the transverse canonical momentum are
    conserved, so sigma = E - V0 and w_a^2 = sigma^2 - m^2 - |P_perp - V_perp|^2.
    """
    m = scenario["mass"]
    p = np.asarray(scenario["p_final"], dtype=float)
    pot = scenario["potential"]
    c = np.asarray(pot.get("amplitude", pot["v_past"]), dtype=float)
    V = _G[:, None] * c[None, :]
    if pot["axis"] == "time":
        w = p[None, :] - V[:, 1:]
        w2 = np.einsum("ij,ij->i", w, w)
        return float(np.sqrt(np.max(w2 / (w2 + m * m)))), float("inf")
    ai = "xyz".index(pot["axis"])
    perp = [i for i in range(3) if i != ai]
    sigma = np.sqrt(p @ p + m * m) - V[:, 0]
    wp = p[None, perp] - V[:, [1 + i for i in perp]]
    wa2 = sigma**2 - m * m - np.einsum("ij,ij->i", wp, wp)
    if np.any(sigma <= m) or np.any(wa2 <= 0.0):
        return float(np.max(np.sqrt(np.clip(1.0 - (m / sigma) ** 2, 0.0, None)))), 0.0
    speed = np.sqrt(1.0 - (m / sigma) ** 2)
    return float(np.max(speed)), float(np.min(np.sqrt(wa2) / sigma))


def inside_contract(scenario: dict) -> bool:
    vmax, axial = path_extremes(scenario)
    return vmax <= SPEED_CAP and axial >= AXIAL_FLOOR


def _draw(rng, axis: str, shape: str, name: str) -> dict:
    if axis == "time":
        p_final = _unit(rng) * rng.uniform(0.3, 0.7)
        vec = np.concatenate([[0.0], _unit(rng)]) * rng.uniform(0.15, 0.3)
    else:
        # mostly axial motion keeps the traversal time, and so the cost of
        # the draw, within a narrow band
        p_final = np.zeros(3)
        p_final[:2] = rng.normal(size=2) * 0.15
        p_final[2] = rng.uniform(0.5, 0.8)
        p_final = np.roll(p_final, "xyz".index(axis) - 2)
        vec = np.concatenate([[rng.uniform(-0.15, 0.15)], _unit(rng) * rng.uniform(0.15, 0.3)])
    x2 = rng.uniform(0.8, 1.2)
    x1 = x2 + rng.uniform(*_WIDTH[shape])
    potential = {"axis": axis, "x1": round(x1, 6), "x2": round(x2, 6), "shape": shape}
    if shape == "smoothstep7":
        potential["v_past"] = [round(float(c), 6) for c in vec]
    else:
        potential["v_past"] = [0.0, 0.0, 0.0, 0.0]
        potential["amplitude"] = [round(float(c), 6) for c in vec]
    return {
        "name": name,
        "mass": 1.0,
        "charge": round(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.35)), 6),
        "p_final": [round(float(c), 6) for c in p_final],
        "potential": potential,
    }


def draw_scenarios(seed: int) -> list[dict]:
    """The 12 scenarios of one sweep run, in (axis, shape) order."""
    rng = np.random.default_rng(seed)
    out = []
    for axis in AXES:
        for shape in SHAPES:
            while True:
                scenario = _draw(rng, axis, shape, f"sweep-{seed}-{axis}-{shape}")
                if inside_contract(scenario):
                    break
            out.append(scenario)
    return out

"""Radiation-reaction self-force along the unperturbed trajectory.

Four-force (metric +---, units c=1, alpha_c = e^2/4pi):

    F^mu = (2 alpha_c / 3) [ d^3x^mu/dtau^3 + (dx^mu/dtau)(u'' . u'') ],

with every proper-time derivative expanded analytically through the
coordinate-time kinematics (v, a, da/dt).  The coordinate-time companion is
the force density entering d/dt(m dx^i/dtau) = F_ext^i dtau/dt + f^i; the
two are related by f^i = F^i / gamma.

Both vanish identically outside the acceleration interval because the
potential derivatives vanish there bitwise.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Trajectory, kinematics

__all__ = ["ld_coordinate_force"]


def _dots(kin):
    v, a, adot = kin.v, kin.a, kin.adot
    av = np.einsum("ij,ij->i", a, v)
    aa = np.einsum("ij,ij->i", a, a)
    adv = np.einsum("ij,ij->i", adot, v)
    return v, a, adot, av, aa, adv, kin.gamma


def _four_force(kin, alpha_c: float) -> np.ndarray:
    """F^mu from a flow sample in array form, (N, 4)."""
    v, a, adot, av, aa, adv, g = _dots(kin)

    # u'' = d^2x/dtau^2 and its coordinate-time derivative
    g2, g4, g6 = g**2, g**4, g**6
    udd0 = g4 * av
    uddv = g4[:, None] * av[:, None] * v + g2[:, None] * a
    dudd0 = 4.0 * g6 * av**2 + g4 * (adv + aa)
    duddv = (
        (4.0 * g6 * av**2 + g4 * (adv + aa))[:, None] * v
        + 3.0 * (g4 * av)[:, None] * a
        + g2[:, None] * adot
    )
    norm2 = udd0**2 - np.einsum("ij,ij->i", uddv, uddv)  # u''.u'' (+--- metric)

    F = np.empty((len(g), 4))
    F[:, 0] = g * dudd0 + g * norm2          # u^0 = gamma
    F[:, 1:] = g[:, None] * duddv + (g * norm2)[:, None] * v
    F *= 2.0 * alpha_c / 3.0
    return F


def _coordinate_force(kin, alpha_c: float) -> np.ndarray:
    """f^i of `ld_coordinate_force` from a flow sample in array form, (N, 3)."""
    v, a, adot, av, aa, adv, g = _dots(kin)
    g2, g4, g6 = g**2, g**4, g**6

    f = (
        g2[:, None] * adot
        + 3.0 * (g4 * av)[:, None] * a
        + (3.0 * g6 * av**2 + g4 * adv)[:, None] * v
    )
    f *= 2.0 * alpha_c / 3.0
    return f


def ld_coordinate_force(traj: Trajectory, t, alpha_c: float) -> np.ndarray:
    """Coordinate-time radiation-reaction force f^i = F^i / gamma.

    Expanded form:
        f = (2 alpha_c/3) { g^2 adot + 3 g^4 (a.v) a
                            + [3 g^6 (a.v)^2 + g^4 (adot.v)] v }.
    At v = 0 this reduces to (2 alpha_c/3) da/dt.
    """
    f = _coordinate_force(kinematics(traj, np.atleast_1d(t)), alpha_c)
    return f[0] if np.ndim(t) == 0 else f

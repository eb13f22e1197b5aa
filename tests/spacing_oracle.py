"""The physical spacing rules, as an oracle for the grid.

The solvers place elements on grid positions only, and the grid step is the
spacing floor, so the package checks a placement's structure on the grid
(`fcla.solution`) rather than these rules. The tests check here, on the
positions themselves, that the grid and every placement it admits keep the
rules: elements of one ring at least the minimum revolve angle apart, rings
at least d_min apart.
"""

import math

import numpy as np

# slack of the spacing checks, for positions that sit on a floor up to rounding
SPACING_TOL = 1e-9


def psi_min(config) -> float:
    """Smallest ring angle between two elements: its chord is d_min."""
    return 2.0 * math.asin(config.d_min / (2.0 * config.radius))


def ring_angle_distance(a, b):
    """Circular distance between two ring angles, in [0, pi]."""
    d = np.abs(np.mod(a - b, 2.0 * np.pi))
    return np.minimum(d, 2.0 * np.pi - d)


def check_spacing(placement, config) -> None:
    """Validate anti-coupling constraints for a flat list of (psi, z) positions.

    Elements sharing a height form one ring and must be separated by at least
    the minimum revolve angle; distinct heights must differ by at least d_min.
    Raises ValueError naming the first violating pair: of heights in
    ascending order, else of elements ring by ring from the lowest, in
    placement order within a ring.
    """
    psi, z = np.asarray(placement, dtype=float).reshape(-1, 2).T
    order = np.argsort(z, kind="stable")
    psi, z = psi[order], z[order]
    # consecutive distinct heights: the gaps between rings
    gaps = np.diff(z)
    close = np.flatnonzero((gaps > 0.0) & (gaps < config.d_min - SPACING_TOL))
    if close.size:
        low, high = z[close[0]], z[close[0] + 1]
        raise ValueError(
            f"ring heights {low} and {high} are closer than d_min={config.d_min}"
        )
    floor = psi_min(config)
    close = np.triu((z[:, None] == z)
                    & (ring_angle_distance(psi[:, None], psi)
                       < floor - SPACING_TOL), 1)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise ValueError(
            f"angles {psi[i]} and {psi[j]} on the ring at z={z[i]} "
            f"are closer than the minimum revolve angle {floor}"
        )

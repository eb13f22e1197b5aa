"""Cylindrical array geometry: ring placement grids and anti-coupling spacing rules.

An array is M stacked rings of N revolving elements on a shared vertical axis.
Candidate positions live on a grid whose angular step equals the minimum
revolve angle (the angle subtending a chord of d_min on the ring) and whose
vertical step equals d_min, so any two distinct grid points automatically
satisfy the spacing constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pattern import PatternSpec

SPEED_OF_LIGHT = 299792458.0

# slack for floor() on quantities that are exact integers up to rounding
_FLOOR_EPS = 1e-9


def min_revolve_angle(d_min: float, radius: float) -> float:
    """Smallest ring angle between two elements whose chord distance is d_min.

    The chord subtended by the returned angle on a circle of the given radius
    equals d_min exactly: 2*R*sin(angle/2) == d_min.
    """
    if d_min <= 0.0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if d_min > 2.0 * radius:
        raise ValueError(
            f"d_min={d_min} exceeds the ring diameter {2.0 * radius}; "
            "no revolve angle can realize that chord"
        )
    return 2.0 * math.asin(d_min / (2.0 * radius))


@dataclass(frozen=True)
class FclaConfig:
    """Array description: ring count, elements per ring, track radius, vertical
    extent, spacing floor, carrier wavelength, and the element pattern."""

    m_rings: int
    n_elements: int
    radius: float
    height_extent: float
    d_min: float
    wavelength: float
    pattern: PatternSpec = field(default_factory=PatternSpec.omni)

    def __post_init__(self):
        if self.m_rings < 1 or self.n_elements < 1:
            raise ValueError("need at least one ring and one element per ring")
        for name in ("radius", "height_extent", "d_min", "wavelength"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.d_min > 2.0 * self.radius:
            raise ValueError(
                f"d_min={self.d_min} exceeds ring diameter {2.0 * self.radius}"
            )
        if self.grid_heights < self.m_rings:
            raise ValueError(
                f"vertical extent {self.height_extent} gives {self.grid_heights} "
                f"height slots, fewer than {self.m_rings} rings"
            )
        if self.grid_angles < self.n_elements:
            raise ValueError(
                f"ring admits {self.grid_angles} angle slots, fewer than "
                f"{self.n_elements} elements"
            )

    @classmethod
    def from_grid(cls, m_rings: int, n_elements: int, g_h: int, g_v: int,
                  d_min: float, wavelength: float,
                  pattern: PatternSpec | None = None) -> "FclaConfig":
        """Build a config whose grid has exactly g_h angle and g_v height slots.

        The radius is derived by inverting the chord relation, d_min / (2*sin(pi/g_h)),
        and the vertical extent is g_v * d_min. Used for sweeps parameterized by
        grid size instead of physical dimensions.
        """
        if g_h < max(2, n_elements):
            raise ValueError(f"g_h must be >= max(2, n_elements), got {g_h}")
        if g_v < max(1, m_rings):
            raise ValueError(f"g_v must be >= m_rings, got {g_v}")
        radius = d_min / (2.0 * math.sin(math.pi / g_h))
        return cls(
            m_rings=m_rings,
            n_elements=n_elements,
            radius=radius,
            height_extent=g_v * d_min,
            d_min=d_min,
            wavelength=wavelength,
            pattern=pattern if pattern is not None else PatternSpec.omni(),
        )

    @property
    def psi_min(self) -> float:
        return min_revolve_angle(self.d_min, self.radius)

    @property
    def grid_angles(self) -> int:
        """Number of angle slots per ring, floor(2*pi / psi_min)."""
        return int(math.floor(2.0 * math.pi / self.psi_min + _FLOOR_EPS))

    @property
    def grid_heights(self) -> int:
        """Number of height slots, floor(height_extent / d_min)."""
        return int(math.floor(self.height_extent / self.d_min + _FLOOR_EPS))


@dataclass
class PositionGrid:
    """Candidate positions: psi[g] = g * 2*pi/G_H, z[g] = g * d_min."""

    psi: np.ndarray
    z: np.ndarray

    @property
    def g_h(self) -> int:
        return len(self.psi)

    @property
    def g_v(self) -> int:
        return len(self.z)


def build_grid(config: FclaConfig) -> PositionGrid:
    """Derive the candidate position grid from an array configuration, which
    already holds at least M height and N angle slots."""
    g_h = config.grid_angles
    g_v = config.grid_heights
    psi = np.arange(g_h) * (2.0 * np.pi / g_h)
    z = np.arange(g_v) * config.d_min
    return PositionGrid(psi=psi, z=z)


def ring_angle_distance(a, b):
    """Circular distance between two ring angles, in [0, pi]."""
    d = np.abs(np.mod(a - b, 2.0 * np.pi))
    return np.minimum(d, 2.0 * np.pi - d)


def check_spacing(placement, config: FclaConfig, tol: float = 1e-9) -> None:
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
    close = np.flatnonzero((gaps > 0.0) & (gaps < config.d_min - tol))
    if close.size:
        low, high = z[close[0]], z[close[0] + 1]
        raise ValueError(
            f"ring heights {low} and {high} are closer than d_min={config.d_min}"
        )
    psi_min = config.psi_min
    close = np.triu((z[:, None] == z)
                    & (ring_angle_distance(psi[:, None], psi) < psi_min - tol), 1)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise ValueError(
            f"angles {psi[i]} and {psi[j]} on the ring at z={z[i]} "
            f"are closer than the minimum revolve angle {psi_min}"
        )

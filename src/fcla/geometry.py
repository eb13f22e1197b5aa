"""Cylindrical array geometry: the candidate grid.

An array is M stacked rings of N revolving elements on a shared vertical axis.
Candidate positions form a grid of G_H ring angles by G_V heights. The angle
step 2*pi/G_H subtends a chord of exactly d_min on the ring, which fixes the
track radius, and the heights are d_min apart, so any two distinct grid
points satisfy the spacing constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pattern import PatternSpec

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class FclaConfig:
    """Array description: ring count, elements per ring, a grid of g_h ring
    angles by g_v heights, spacing floor, carrier wavelength, and the element
    pattern. The track radius follows from the grid."""

    m_rings: int
    n_elements: int
    g_h: int
    g_v: int
    d_min: float
    wavelength: float
    pattern: PatternSpec = field(default_factory=PatternSpec.omni)

    def __post_init__(self):
        if self.m_rings < 1 or self.n_elements < 1:
            raise ValueError("need at least one ring and one element per ring")
        if self.g_h < max(2, self.n_elements):
            raise ValueError(f"g_h must be >= max(2, n_elements), got {self.g_h}")
        if self.g_v < self.m_rings:
            raise ValueError(f"g_v must be >= m_rings, got {self.g_v}")
        for name in ("d_min", "wavelength"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def radius(self) -> float:
        """Track radius at which the grid's angle step has a chord of d_min."""
        return self.d_min / (2.0 * math.sin(math.pi / self.g_h))

    @property
    def psi(self) -> np.ndarray:
        """The grid's ring angles, g * 2*pi/g_h."""
        return np.arange(self.g_h) * (2.0 * np.pi / self.g_h)

    @property
    def z(self) -> np.ndarray:
        """The grid's heights, g * d_min."""
        return np.arange(self.g_v) * self.d_min

"""Element radiation patterns: omni and a rotated cosine-family directional lobe.

The directional element points outward along its ring azimuth. Its power
pattern is Q * sin(theta)^kappa * cos(phi_rel)^kappa on the front half-space
(relative azimuth within +-pi/2) and zero behind, with Q = 2*(kappa+1) chosen
so the pattern radiates the same total power as an isotropic element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PATTERN_KINDS = ("directional", "omni")


@dataclass(frozen=True)
class PatternSpec:
    kind: str  # one of PATTERN_KINDS
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if self.kind == "directional" and self.kappa < 1.0:
            raise ValueError(f"pattern sharpness must be >= 1, got {self.kappa}")

    @classmethod
    def omni(cls) -> "PatternSpec":
        return cls("omni")

    @classmethod
    def directional(cls, kappa: float = 1.0) -> "PatternSpec":
        return cls("directional", float(kappa))

    @property
    def is_directional(self) -> bool:
        return self.kind == "directional"

    @property
    def q(self) -> float:
        """Power normalization factor 2*(kappa+1)."""
        return 2.0 * (self.kappa + 1.0)


def power_gain(spec: PatternSpec, theta, phi_rel):
    """Radiated power gain at elevation theta and element-relative azimuth phi_rel.

    theta is expected in [0, pi]; any real azimuth phi_rel is accepted. Omni
    elements return 1 everywhere; directional elements return 0 on the back
    half-space.
    """
    theta = np.asarray(theta, dtype=float)
    phi_rel = np.asarray(phi_rel, dtype=float)
    if not spec.is_directional:
        return np.ones(np.broadcast_shapes(theta.shape, phi_rel.shape))
    # clipped cosines vanish outside the support, so no explicit mask is
    # needed, and cos is 2*pi-periodic, so phi_rel needs no wrapping
    s = np.maximum(np.sin(theta), 0.0)
    c = np.maximum(np.cos(phi_rel), 0.0)
    return spec.q * s**spec.kappa * c**spec.kappa

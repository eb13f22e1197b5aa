"""Multipath channel synthesis and the position dictionary used by the solvers.

A user's channel entry at a candidate position (psi, z) aggregates L plane-wave
paths: conjugated path gain, element pattern amplitude toward the path, and the
carrier phase accumulated along the direction cosines. Stacking one such entry
per user gives a dictionary column; gathering columns at an actual placement
gives the channel matrix whose rows act as h_k^H in the link equations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import FclaConfig, PositionGrid, check_spacing
from .pattern import power_gain

THETA_EL_RANGE = (np.pi / 6.0, 5.0 * np.pi / 6.0)


@dataclass
class PathSet:
    """Per-user multipath parameters: complex gains and arrival angles for L paths.

    Direction cosines (phi_x, phi_y along the ring plane, theta_z along the
    axis) are cached at construction.
    """

    beta: np.ndarray
    theta_el: np.ndarray
    phi_az: np.ndarray
    phi_x: np.ndarray = field(init=False)
    phi_y: np.ndarray = field(init=False)
    theta_z: np.ndarray = field(init=False)

    def __post_init__(self):
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=complex))
        self.theta_el = np.atleast_1d(np.asarray(self.theta_el, dtype=float))
        self.phi_az = np.atleast_1d(np.asarray(self.phi_az, dtype=float))
        if not (self.beta.shape == self.theta_el.shape == self.phi_az.shape):
            raise ValueError("beta, theta_el and phi_az must have equal length")
        self.phi_x = np.sin(self.theta_el) * np.cos(self.phi_az)
        self.phi_y = np.sin(self.theta_el) * np.sin(self.phi_az)
        self.theta_z = np.cos(self.theta_el)

    @property
    def n_paths(self) -> int:
        return len(self.beta)


def draw_paths(n_users: int, n_paths: int, rng_seed) -> list[PathSet]:
    """Draw one multipath realization per user.

    Gains are i.i.d. circularly symmetric complex Gaussian with unit variance,
    elevations uniform on [pi/6, 5*pi/6], azimuths uniform on [0, 2*pi).
    Deterministic for a given seed.
    """
    if n_users < 1 or n_paths < 1:
        raise ValueError("need at least one user and one path")
    rng = np.random.default_rng(rng_seed)
    beta = (rng.standard_normal((n_users, n_paths))
            + 1j * rng.standard_normal((n_users, n_paths))) / np.sqrt(2.0)
    theta = rng.uniform(*THETA_EL_RANGE, size=(n_users, n_paths))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(n_users, n_paths))
    return [PathSet(beta[k], theta[k], phi[k]) for k in range(n_users)]


def export_paths(paths: list[PathSet], fp) -> None:
    """Write a drawn path collection as JSON records, one per (user, path)."""
    records = []
    for k, ps in enumerate(paths):
        for l in range(ps.n_paths):
            records.append({
                "user": k,
                "path": l,
                "beta_re": float(ps.beta[l].real),
                "beta_im": float(ps.beta[l].imag),
                "theta_el": float(ps.theta_el[l]),
                "phi_az": float(ps.phi_az[l]),
            })
    if hasattr(fp, "write"):
        json.dump(records, fp, indent=1)
    else:
        with open(fp, "w") as f:
            json.dump(records, f, indent=1)


def _apm_columns(paths: list[PathSet], psi, z, config: FclaConfig) -> np.ndarray:
    """Response of every user at each candidate position, as a K x G matrix.

    Column g holds, per user, (1/sqrt(L)) * sum_l conj(beta_l) * amp_l(psi_g)
    * exp(-j * 2*pi/lambda * (R*phi_x*cos(psi_g) + R*phi_y*sin(psi_g) + z_g*theta_z)).
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if psi.shape != z.shape:
        raise ValueError("psi and z must align (one pair per column)")
    beta = np.stack([p.beta for p in paths])          # (K, L)
    phi_x = np.stack([p.phi_x for p in paths])
    phi_y = np.stack([p.phi_y for p in paths])
    theta_z = np.stack([p.theta_z for p in paths])
    n_paths = beta.shape[1]

    wave = 2.0 * np.pi / config.wavelength
    phase = wave * (config.radius * (phi_x[..., None] * np.cos(psi)
                                     + phi_y[..., None] * np.sin(psi))
                    + theta_z[..., None] * z)          # (K, L, G)
    if config.pattern.is_directional:
        theta_el = np.stack([p.theta_el for p in paths])
        phi_az = np.stack([p.phi_az for p in paths])
        gain = power_gain(config.pattern, theta_el[..., None],
                          phi_az[..., None] - psi)
        amp = np.sqrt(gain)
    else:
        amp = 1.0
    terms = np.conj(beta)[..., None] * amp * np.exp(-1j * phase)
    return terms.sum(axis=1) / np.sqrt(n_paths)


@dataclass
class ChannelMatrix:
    """Stacked user responses at an actual placement. Row k acts as h_k^H."""

    entries: np.ndarray
    positions: list  # (psi, z) per column


def synthesize_channel(paths: list[PathSet], placement,
                       config: FclaConfig) -> ChannelMatrix:
    """Channel matrix for a concrete placement (one (psi, z) pair per antenna).

    Rejects placements that violate the ring-angle or height spacing floors.
    """
    placement = [(float(p), float(h)) for p, h in placement]
    check_spacing(placement, config)
    psi = np.array([p for p, _ in placement])
    z = np.array([h for _, h in placement])
    return ChannelMatrix(entries=_apm_columns(paths, psi, z, config),
                         positions=placement)


@dataclass
class Dictionary:
    """Responses at every candidate position as a dense K x G matrix, or a
    B x K x G stack of them for B trials on the same grid.

    Columns are height-major: column slot * group_size + angle holds the
    response at (grid.psi[angle], grid.z[slot]), so a height slot is a group
    of group_size consecutive angle columns.
    """

    entries: np.ndarray
    psi: np.ndarray
    z: np.ndarray
    group_size: int

    @classmethod
    def stack(cls, dictionaries: list["Dictionary"]) -> "Dictionary":
        """One B x K x G dictionary from B trials' dictionaries on one grid."""
        first = dictionaries[0]
        return cls(entries=np.stack([d.entries for d in dictionaries]),
                   psi=first.psi, z=first.z, group_size=first.group_size)

    @property
    def stacked(self) -> np.ndarray:
        """The entries with a leading trial axis (one trial if they are 2-D)."""
        return self.entries if self.entries.ndim == 3 else self.entries[None]

    @property
    def n_columns(self) -> int:
        return self.entries.shape[-1]

    def rows(self, index: np.ndarray | None = None) -> np.ndarray:
        """Conjugated columns as rows, (B, n, K): columns index[b] of each
        trial b, or every column when index is None."""
        entries = self.stacked
        if index is not None:
            entries = np.take_along_axis(entries, index[:, None, :], axis=2)
        return np.ascontiguousarray(np.conj(np.swapaxes(entries, 1, 2)))

    @property
    def n_groups(self) -> int:
        return self.n_columns // self.group_size

    def check_capacity(self, config: FclaConfig) -> None:
        """Raise unless the grid can host config's rings of elements."""
        if self.n_groups < config.m_rings or self.group_size < config.n_elements:
            raise ValueError(
                f"dictionary grid {self.group_size}x{self.n_groups} cannot host "
                f"{config.m_rings} rings of {config.n_elements} elements"
            )


def build_joint_dictionary(paths: list[PathSet], grid: PositionGrid,
                           config: FclaConfig) -> Dictionary:
    """All (angle, height) candidates, height-major: the G_H angle columns of
    height slot 0, then slot 1, and so on."""
    psi = np.tile(grid.psi, grid.g_v)
    z = np.repeat(grid.z, grid.g_h)
    return Dictionary(entries=_apm_columns(paths, psi, z, config),
                      psi=psi, z=z, group_size=grid.g_h)

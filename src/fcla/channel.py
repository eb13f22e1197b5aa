"""Multipath channel synthesis and the position dictionary used by the solvers.

A user's channel entry at a candidate position (psi, z) aggregates L plane-wave
paths: conjugated path gain, element pattern amplitude toward the path, and the
carrier phase accumulated along the direction cosines. That phase is a ring
term in psi plus a height term in z, so the entries on a grid of angles x
heights contract, over the paths, an angle factor with a height factor.
Stacking one entry per user gives a dictionary column; gathering columns at an
actual placement gives the channel matrix whose rows act as h_k^H.

Every array carries a leading trial axis: B independent draws, B = 1 for a
single trial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import FclaConfig, PositionGrid, check_spacing
from .pattern import power_gain

THETA_EL_RANGE = (np.pi / 6.0, 5.0 * np.pi / 6.0)


@dataclass
class Paths:
    """Multipath parameters of B trials of K users with L paths each: complex
    gains beta, elevations theta_el and azimuths phi_az, all (B, K, L)."""

    beta: np.ndarray
    theta_el: np.ndarray
    phi_az: np.ndarray

    def __len__(self) -> int:
        return len(self.beta)


def draw_paths(n_users: int, n_paths: int, seeds) -> Paths:
    """Draw one multipath realization per user for each trial, trial b from a
    generator seeded with seeds[b], so a trial's draw is the same in any batch.

    Gains are i.i.d. circularly symmetric complex Gaussian with unit variance,
    elevations uniform on [pi/6, 5*pi/6], azimuths uniform on [0, 2*pi).
    """
    if n_users < 1 or n_paths < 1:
        raise ValueError("need at least one user and one path")
    shape = (n_users, n_paths)
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        beta = (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        theta = rng.uniform(*THETA_EL_RANGE, size=shape)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        draws.append((beta, theta, phi))
    if not draws:
        raise ValueError("need at least one trial seed")
    return Paths(*(np.stack(arrays) for arrays in zip(*draws)))


def export_paths(paths: Paths, fp) -> None:
    """Write a one-trial path record as JSON records, one per (user, path)."""
    if len(paths) != 1:
        raise ValueError(f"exports one trial's paths, got {len(paths)} trials")
    records = [{
        "user": k,
        "path": l,
        "beta_re": float(beta.real),
        "beta_im": float(beta.imag),
        "theta_el": float(paths.theta_el[0, k, l]),
        "phi_az": float(paths.phi_az[0, k, l]),
    } for (k, l), beta in np.ndenumerate(paths.beta[0])]
    if hasattr(fp, "write"):
        json.dump(records, fp, indent=1)
    else:
        with open(fp, "w") as f:
            json.dump(records, f, indent=1)


def _responses(paths: Paths, grid: PositionGrid, config: FclaConfig) -> np.ndarray:
    """Response of every user at every grid position, (B, K, G_V, G_H).

    Entry (v, a) holds (1/sqrt(L)) * sum_l conj(beta_l) * amp_l(psi_a)
    * exp(-j * 2*pi/lambda * (R*sin(theta_l)*cos(phi_l - psi_a) + z_v*cos(theta_l))),
    the path sum of an angle factor (gain, pattern, ring phase) times a
    height factor.
    """
    wave = 2.0 * np.pi / config.wavelength
    theta = paths.theta_el[..., None]
    phi = paths.phi_az[..., None]
    sin_el = np.sin(theta)
    ring = (sin_el * np.cos(phi) * np.cos(grid.psi)
            + sin_el * np.sin(phi) * np.sin(grid.psi))
    angle = np.conj(paths.beta)[..., None] * np.exp(
        -1j * (wave * config.radius) * ring)  # (B, K, L, G_H)
    if config.pattern.is_directional:
        angle *= np.sqrt(power_gain(config.pattern, theta, phi - grid.psi))
    height = np.exp(-1j * wave * np.cos(theta) * grid.z)  # (B, K, L, G_V)
    responses = np.einsum("...lv,...la->...va", height, angle)
    responses /= np.sqrt(paths.beta.shape[-1])
    return responses


def synthesize_channel(paths: Paths, placement,
                       config: FclaConfig) -> np.ndarray:
    """Channel matrices (B, K, N) of every trial for a concrete placement (one
    (psi, z) pair per antenna), gathered from the responses on the
    placement's distinct angles x distinct heights. Row k of a trial acts as
    h_k^H.

    Rejects placements that violate the ring-angle or height spacing floors.
    """
    placement = [(float(p), float(h)) for p, h in placement]
    check_spacing(placement, config)
    psi, angle = np.unique([p for p, _ in placement], return_inverse=True)
    z, height = np.unique([h for _, h in placement], return_inverse=True)
    entries = _responses(paths, PositionGrid(psi=psi, z=z), config)
    return entries[..., height, angle]


@dataclass
class Dictionary:
    """Responses of B trials at every candidate position, as (B, K, G)
    entries.

    Columns are height-major: column slot * group_size + angle holds the
    response at (grid.psi[angle], grid.z[slot]), so a height slot is a group
    of group_size consecutive angle columns.
    """

    entries: np.ndarray
    psi: np.ndarray
    z: np.ndarray
    group_size: int

    @property
    def n_columns(self) -> int:
        return self.entries.shape[-1]

    def rows(self, index: np.ndarray | None = None) -> np.ndarray:
        """Conjugated columns as rows, (B, n, K): columns index[b] of each
        trial b, or every column when index is None."""
        entries = self.entries
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


def build_joint_dictionary(paths: Paths, grid: PositionGrid,
                           config: FclaConfig) -> Dictionary:
    """All (angle, height) candidates, height-major: the G_H angle columns of
    height slot 0, then slot 1, and so on."""
    entries = _responses(paths, grid, config)
    return Dictionary(entries=entries.reshape(*entries.shape[:2], -1),
                      psi=np.tile(grid.psi, grid.g_v),
                      z=np.repeat(grid.z, grid.g_h), group_size=grid.g_h)

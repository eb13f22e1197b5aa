"""Multipath channel synthesis and the position dictionary used by the solvers.

A user's channel entry at a candidate position (psi, z) aggregates L plane-wave
paths: conjugated path gain, element pattern amplitude toward the path, and the
carrier phase accumulated along the direction cosines. That phase is a ring
term in psi plus a height term in z, so the entries on a grid of angles x
heights contract, over the paths, an angle factor with a height factor.
The dictionary stores one conjugated row of K user entries per position, as
the solvers' matched filters read it; a placement's rows, conjugate
transposed, give the channel matrix whose rows act as h_k^H.

Every array carries a leading trial axis: B independent draws, B = 1 for a
single trial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import FclaConfig
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


def export_paths(paths: Paths, path) -> None:
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
    with open(path, "w") as f:
        json.dump(records, f, indent=1)


def _responses(paths: Paths, psi: np.ndarray, z: np.ndarray,
               config: FclaConfig) -> np.ndarray:
    """Conjugated responses of every user at every position of the heights z
    x angles psi, (B, len(z), len(psi), K): entry (v, a, k) is the conjugate
    of (1/sqrt(L)) * sum_l conj(beta_l) * amp_l(psi_a)
    * exp(-j * 2*pi/lambda * (R*sin(theta_l)*cos(phi_l - psi_a) + z_v*cos(theta_l))),
    user k's path sum of an angle factor (gain, pattern, ring phase) times a
    height factor, each built conjugated.
    """
    wave = 2.0 * np.pi / config.wavelength
    theta = paths.theta_el[..., None]
    phi = paths.phi_az[..., None]
    sin_el = np.sin(theta)
    ring = (sin_el * np.cos(phi) * np.cos(psi)
            + sin_el * np.sin(phi) * np.sin(psi))
    angle = paths.beta[..., None] * np.exp(
        1j * (wave * config.radius) * ring)  # (B, K, L, G_H)
    if config.pattern.is_directional:
        angle *= np.sqrt(power_gain(config.pattern, theta, phi - psi))
    height = np.exp(1j * wave * np.cos(theta) * z)  # (B, K, L, G_V)
    rows = np.einsum("bklv,bkla->bvak", height, angle, order="C")
    rows /= np.sqrt(paths.beta.shape[-1])
    return rows


@dataclass
class Dictionary:
    """Responses of B trials at every candidate position, stored as the rows
    (B, G, K) the solvers match against: row g of a trial is the conjugate
    of its channel's column g, so a placement's channel (B, K, n) is the
    conjugate transpose of the placement's rows.

    Columns are height-major: column slot * group_size + angle holds the
    response at (psi[angle], z[slot]), so a height slot is a group of
    group_size consecutive angle columns. The positions lie on a track of
    the given radius.
    """

    rows: np.ndarray
    psi: np.ndarray
    z: np.ndarray
    group_size: int
    radius: float

    def take(self, index: np.ndarray, trials=None) -> np.ndarray:
        """The rows of columns index[i] (T, n) of trial trials[i], (T, n, K).

        trials lists T of the B trials, by default all of them in order.
        Only the gathered rows are copied, never the dictionary."""
        if trials is None:
            trials = np.arange(len(self.rows))
        return self.rows[np.asarray(trials)[:, None], index]

    @property
    def n_groups(self) -> int:
        return self.rows.shape[1] // self.group_size

    def check_capacity(self, config: FclaConfig) -> None:
        """Raise unless the grid can host config's rings of elements."""
        if self.n_groups < config.m_rings or self.group_size < config.n_elements:
            raise ValueError(
                f"dictionary grid {self.group_size}x{self.n_groups} cannot host "
                f"{config.m_rings} rings of {config.n_elements} elements"
            )


def build_joint_dictionary(paths: Paths, config: FclaConfig,
                           psi: np.ndarray | None = None) -> Dictionary:
    """All (angle, height) candidates of config's grid, or of the angles psi
    (default config.psi) at its heights, height-major: the angle columns of
    height slot 0, then slot 1, and so on."""
    psi = config.psi if psi is None else psi
    rows = _responses(paths, psi, config.z, config)
    return Dictionary(rows=rows.reshape(len(paths), -1, rows.shape[-1]),
                      psi=np.tile(psi, config.g_v),
                      z=np.repeat(config.z, len(psi)), group_size=len(psi),
                      radius=config.radius)

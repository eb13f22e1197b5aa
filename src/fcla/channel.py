"""Multipath channel synthesis and the position dictionary used by the solvers.

A user's channel entry at a candidate position (psi, z) aggregates L plane-wave
paths: conjugated path gain, element pattern amplitude toward the path, and the
carrier phase accumulated along the direction cosines. That phase is a ring
term in psi plus a height term in z, so the entries on a grid of angles x
heights contract, over the paths, an angle factor with a height factor.
The dictionary stores one conjugated row of K user entries per position, as
the solvers' matched filters read it, with the config whose grid it covers;
a placement's rows, conjugate transposed, give the channel matrix whose rows
act as h_k^H.

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
# pieces of a batch's trials that build_joint_dictionary fills one at a
# time, so the response builder's intermediates exist for one piece only
_PIECES = 4


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
               config: FclaConfig, out: np.ndarray) -> None:
    """Conjugated responses of every user at every position of the heights z
    x angles psi, (B, len(z), len(psi), K): entry (v, a, k) is the conjugate
    of (1/sqrt(L)) * sum_l conj(beta_l) * amp_l(psi_a)
    * exp(-j * 2*pi/lambda * (R*sin(theta_l)*cos(phi_l - psi_a) + z_v*cos(theta_l))),
    user k's path sum of an angle factor (gain, pattern, ring phase and the
    1/sqrt(L) scale) times a height factor, each built conjugated. The sum
    over paths is one matrix product per trial and user, the height
    factor's transpose (len(z), L) times the angle factor (L, len(psi)),
    written into out, a complex array of that shape.
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
    angle /= np.sqrt(paths.beta.shape[-1])
    height = np.exp(1j * wave * np.cos(theta) * z)  # (B, K, L, G_V)
    np.matmul(height.swapaxes(-1, -2), angle, out=np.moveaxis(out, -1, 1))


@dataclass
class Dictionary:
    """Responses of B trials at every candidate position of config's grid,
    stored as the rows (B, G, K) the solvers match against: row g of a trial
    is the conjugate of its channel's column g, so a placement's channel
    (B, K, n) is the conjugate transpose of the placement's rows.

    Columns are height-major: column slot * config.g_h + angle holds the
    response at (config.psi[angle], config.z[slot]), so a height slot is a
    group of g_h consecutive angle columns. The config is the grid, and
    every fact about it (its slots, its track radius) is read there.
    """

    rows: np.ndarray
    config: FclaConfig

    def __post_init__(self):
        if self.rows.shape[1] != self.config.g_h * self.config.g_v:
            raise ValueError(f"{self.rows.shape[1]} dictionary columns do not "
                             f"fill the {self.config.g_h}x{self.config.g_v} grid")

    def take(self, index: np.ndarray, trials=None) -> np.ndarray:
        """The rows of columns index[i] (T, n) of trial trials[i], (T, n, K).

        trials lists T of the B trials, by default all of them in order.
        Only the gathered rows are copied, never the dictionary."""
        if trials is None:
            trials = np.arange(len(self.rows))
        return self.rows[np.asarray(trials)[:, None], index]

    # each column's position, as the benchmark's tracer
    # (perfbench/tracing.py) reads it
    @property
    def psi(self) -> np.ndarray:
        """Each column's ring angle, (G,)."""
        return np.tile(self.config.psi, self.config.g_v)

    @property
    def z(self) -> np.ndarray:
        """Each column's height, (G,)."""
        return np.repeat(self.config.z, self.config.g_h)


def build_joint_dictionary(paths: Paths, config: FclaConfig) -> Dictionary:
    """All (angle, height) candidates of config's grid, height-major: the
    angle columns of height slot 0, then slot 1, and so on.

    The rows are allocated once and filled _PIECES pieces of trials at a
    time (or one trial at a time, for fewer trials), so the builder's
    intermediates are held for one piece only; each trial's rows are bit
    for bit those of building it alone."""
    psi, z = config.psi, config.z
    n_trials, n_users = paths.beta.shape[:2]
    rows = np.empty((n_trials, len(z), len(psi), n_users), dtype=complex)
    for piece in np.array_split(np.arange(n_trials), min(_PIECES, n_trials)):
        part = slice(piece[0], piece[-1] + 1)
        _responses(Paths(paths.beta[part], paths.theta_el[part],
                         paths.phi_az[part]),
                   psi, z, config, rows[part])
    return Dictionary(rows.reshape(n_trials, -1, n_users), config)

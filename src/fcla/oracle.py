"""Exhaustive reference solver for desk-scale instances.

Enumerates every feasible grid placement (unordered height subsets, one
unordered angle subset per ring), evaluates the regularized precoding
objective or the normalized sum rate for each, and returns the optimum.
Ground truth for validating the greedy solvers on tiny problems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Paths, build_joint_dictionary
from .geometry import FclaConfig, PositionGrid
from .precoding import normalize_columns, rzf, rzf_objective, sinr


@dataclass
class OracleResult:
    heights: np.ndarray
    angles: np.ndarray  # (M, N)
    objective: float
    sum_rate: float
    count: int


def enumeration_count(grid: PositionGrid, m_rings: int, n_elem: int) -> int:
    """C(G_V, M) * C(G_H, N)^M placements."""
    return math.comb(grid.g_v, m_rings) * math.comb(grid.g_h, n_elem) ** m_rings


def exhaustive_best(paths: Paths, grid: PositionGrid,
                    config: FclaConfig, alpha: float,
                    criterion: str = "objective",
                    power: float = 1.0, sigma2: float = 1.0,
                    cap: int = 10**6) -> OracleResult:
    """Globally best feasible placement, under the chosen criterion, for the
    paths of one trial.

    criterion="objective" minimizes the regularized precoding objective at the
    refit precoder; criterion="sum_rate" maximizes the sum rate after column
    normalization to the power budget. Raises if the enumeration would exceed
    cap placements.
    """
    if criterion not in ("objective", "sum_rate"):
        raise ValueError(f"unknown criterion {criterion!r}")
    m_rings, n_elem = config.m_rings, config.n_elements
    count = enumeration_count(grid, m_rings, n_elem)
    if count > cap:
        raise ValueError(
            f"enumeration of {count} placements exceeds the cap of {cap}"
        )

    # the full joint response once; gather columns per candidate
    (entries,) = build_joint_dictionary(paths, grid, config).entries

    height_subsets = list(itertools.combinations(range(grid.g_v), m_rings))
    angle_subsets = list(itertools.combinations(range(grid.g_h), n_elem))

    best_key = None
    best = None
    evaluated = 0
    for h_idx in height_subsets:
        for a_choice in itertools.product(angle_subsets, repeat=m_rings):
            cols = [h * grid.g_h + a
                    for h, ring in zip(h_idx, a_choice) for a in ring]
            H = entries[:, cols]
            F_raw = rzf(H, alpha)
            objective = rzf_objective(H, F_raw, alpha)
            if criterion == "objective":
                key = objective
                better = best_key is None or key < best_key
            else:
                # zero columns mean unservable users (zero rate), not an error
                F = normalize_columns(F_raw, power, allow_zero=True)
                key = sinr(H, F, sigma2).sum_rate
                better = best_key is None or key > best_key
            evaluated += 1
            if better:
                best_key = key
                rate = (key if criterion == "sum_rate" else
                        sinr(H, normalize_columns(F_raw, power, allow_zero=True),
                             sigma2).sum_rate)
                best = (h_idx, a_choice, objective, rate)
    if evaluated != count:
        raise RuntimeError(f"evaluated {evaluated} placements, expected {count}")

    h_idx, a_choice, objective, rate = best
    heights = grid.z[list(h_idx)].copy()
    angles = np.array([[grid.psi[a] for a in ring] for ring in a_choice])
    return OracleResult(heights=heights, angles=angles,
                        objective=float(objective), sum_rate=float(rate),
                        count=count)

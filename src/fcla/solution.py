"""Result containers shared by every method, and the one builder that turns
a method's chosen placement into solutions: gather the channel at the
placement, refit and normalize the RZF precoder there, and check the
spacing rules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig, check_spacing
from .precoding import normalize_columns, rzf, rzf_objective


@dataclass
class PlacementSolution:
    """Optimized array placement plus the matching channel and precoder.

    heights[m] is ring m's height; angles[m] its element angles. placement
    lists (psi, z) per channel column, aligned with H_star's columns and
    F_star's rows. F_star columns are normalized to the requested total power.
    diagnostics carries solver traces (selection order, objective per step,
    sum-rate per outer iteration, matched-filter work counters) and the RZF
    objective of the refit precoder, "final_objective".
    """

    heights: np.ndarray
    angles: np.ndarray
    placement: list
    H_star: np.ndarray
    F_star: np.ndarray
    diagnostics: dict = field(default_factory=dict)


class PlacementBatch(list):
    """The PlacementSolution of each trial of a stack, in trial order.

    diagnostics totals the batch's work under the per-trial keys: counts
    ("iterations", "matched_filter_columns") are summed and supports
    ("support", "final_support") concatenated, for those keys the solutions
    carry.
    """

    @property
    def diagnostics(self) -> dict:
        totals = {}
        for key in ("iterations", "matched_filter_columns"):
            if key in self[0].diagnostics:
                totals[key] = sum(s.diagnostics[key] for s in self)
        for key in ("support", "final_support"):
            if key in self[0].diagnostics:
                totals[key] = [g for s in self for g in s.diagnostics[key]]
        return totals


def refit(dictionary: Dictionary, columns: np.ndarray, alpha: float,
          power: float):
    """Each trial's channel at its placement columns (B, n) of the
    dictionary, (B, K, n), and the RZF precoder refit on it, (B, n, K), as
    is and normalized to the power budget."""
    H = np.take_along_axis(dictionary.entries, columns[:, None, :], axis=2)
    F = rzf(H, alpha)
    return H, F, normalize_columns(F, power, allow_zero=True)


def solutions(dictionary: Dictionary, columns: np.ndarray, slots: np.ndarray,
              config: FclaConfig, alpha: float, power: float,
              diagnostics: list) -> PlacementBatch:
    """One PlacementSolution per trial from a method's choice.

    columns (B, M*N) are each trial's placement columns into the dictionary,
    in the order of its channel's columns, and slots (B, M) the height slot
    of each ring. Ring m sits at slot slots[:, m] and holds that slot's
    columns in column order. Each distinct placement must pass the spacing
    rules of config. diagnostics holds the method's dict per trial, to which
    "final_objective" is added.
    """
    H_star, F, F_star = refit(dictionary, columns, alpha, power)
    objective = rzf_objective(H_star, F, alpha)
    psi, z = dictionary.psi, dictionary.z
    placements = [list(zip(psi[c].tolist(), z[c].tolist())) for c in columns]
    # the uniform baseline repeats one placement in every trial of a batch
    for placement in dict.fromkeys(map(tuple, placements)):
        check_spacing(placement, config)
    g_h = dictionary.group_size
    # each column's ring: the position of its height slot in slots
    ring = (columns[..., None] // g_h == slots[:, None, :]).argmax(axis=-1)
    by_ring = np.take_along_axis(columns, np.argsort(ring, kind="stable"), -1)
    angles = psi[by_ring].reshape(*slots.shape, -1)
    heights = z[slots * g_h]
    return PlacementBatch(
        PlacementSolution(
            heights=heights[t], angles=angles[t],
            placement=placements[t],
            H_star=H_star[t], F_star=F_star[t],
            diagnostics={**diagnostics[t],
                         "final_objective": float(objective[t])})
        for t in range(len(columns)))

"""Result containers shared by the placement solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PlacementSolution:
    """Optimized array placement plus the matching channel and precoder.

    heights[m] is ring m's height; angles[m] its element angles. placement
    lists (psi, z) per channel column, aligned with H_star's columns and
    F_star's rows. F_star columns are normalized to the requested total power.
    diagnostics carries solver traces (selection order, objective per step,
    sum-rate per outer iteration, matched-filter work counters).
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

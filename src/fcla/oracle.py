"""Exhaustive reference solver for desk-scale instances.

Enumerates every feasible placement on a dictionary's grid (unordered height
subsets, one unordered angle subset per ring), rates each by the regularized
precoding objective and by the sum rate after column normalization, and
returns the optimum under each. Ground truth for validating the greedy
solvers on tiny problems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Dictionary
from .precoding import normalize_columns, rzf, rzf_objective, sinr

# bytes of channels (trials x users x antennas per placement) gathered for
# one stacked refit, to bound memory
CHUNK_BYTES = 1 << 22
# placements an enumeration may hold
CAP = 10**6


@dataclass
class OracleResult:
    heights: np.ndarray
    angles: np.ndarray  # (M, N)
    objective: float
    sum_rate: float
    count: int


def exhaustive_best(dictionary: Dictionary, alpha: float,
                    power: float = 1.0, sigma2: float = 1.0
                    ) -> list[tuple[OracleResult, OracleResult]]:
    """Per trial of the (B, G, K) dictionary, the globally best feasible
    placement of its config's rings by objective and by sum rate, as a pair.

    The objective is the regularized precoding objective at the refit RZF
    precoder (minimized); the sum rate is taken after normalizing its columns
    to the power budget (maximized). A zero column, an unservable user, has
    zero rate. Ties go to the first placement in enumeration order. Raises if
    the C(G_V, M) * C(G_H, N)^M placements would exceed CAP.
    """
    config = dictionary.config
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h, g_v = config.g_h, config.g_v
    count = math.comb(g_v, m_rings) * math.comb(g_h, n_elem) ** m_rings
    if count > CAP:
        raise ValueError(f"enumeration of {count} placements exceeds the cap of {CAP}")
    angle_subsets = list(itertools.combinations(range(g_h), n_elem))
    columns = np.array(
        [[h * g_h + a for h, ring in zip(h_idx, a_choice) for a in ring]
         for h_idx in itertools.combinations(range(g_v), m_rings)
         for a_choice in itertools.product(angle_subsets, repeat=m_rings)])

    rows = dictionary.rows
    objective, rate = np.empty((2, len(rows), count))
    step = max(1, CHUNK_BYTES // (rows[:, :columns.shape[1]].nbytes))
    for start in range(0, count, step):
        part = slice(start, start + step)
        H = np.conj(np.swapaxes(rows[:, columns[part]], 2, 3))  # (B, P, K, M*N)
        F = rzf(H, alpha)
        objective[:, part] = rzf_objective(H, F, alpha)
        rate[:, part] = sinr(H, normalize_columns(F, power), sigma2).sum(axis=-1)

    def result(trial: int, index: int) -> OracleResult:
        rings = columns[index].reshape(m_rings, n_elem)
        return OracleResult(heights=config.z[rings[:, 0] // g_h],
                            angles=config.psi[rings % g_h],
                            objective=float(objective[trial, index]),
                            sum_rate=float(rate[trial, index]), count=count)

    return [(result(t, objective[t].argmin()), result(t, rate[t].argmax()))
            for t in range(len(rows))]

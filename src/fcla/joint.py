"""Joint angle/height placement: greedy matching over the full position
dictionary with regularized least-squares refits and group bookkeeping.

One atom is selected per iteration. A height slot whose selected-atom count
reaches the per-ring element count becomes a completed group and its leftover
candidates are retired. Matching may therefore pick more atoms than finally
needed; atoms of never-completed groups are dropped before the final refit.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig
from .precoding import normalize_columns, rzf, rzf_objective
from .solution import PlacementSolution


def match_atom(dictionary: Dictionary, residual: np.ndarray, candidates,
               norm: str = "l2sq") -> int:
    """Candidate column with the largest matched-filter response to the residual.

    The response of column g is the row vector column_g^H @ residual; its
    squared Euclidean norm is the default score ("l2sq"), with an absolute-sum
    variant behind norm="l1". Ties go to the lowest column index.
    """
    candidates = np.asarray(candidates, dtype=int)
    if candidates.size == 0:
        raise ValueError("candidate set is empty")
    matched = dictionary.entries[:, candidates].conj().T @ residual
    if norm == "l2sq":
        scores = np.sum(np.abs(matched) ** 2, axis=1)
    elif norm == "l1":
        scores = np.sum(np.abs(matched), axis=1)
    else:
        raise ValueError(f"unknown matching norm {norm!r}")
    return int(candidates[np.argmax(scores)])


def solve_joint(dictionary: Dictionary, config: FclaConfig, alpha: float,
                power: float = 1.0, matching_norm: str = "l2sq") -> PlacementSolution:
    """Greedy joint selection of ring heights and element angles.

    Iterates: match the best live atom, refit the precoder on everything
    selected so far, update the residual, and retire any height group that
    just filled up. Stops once M groups are complete, keeps only their atoms,
    and refits the final precoder on that support before normalizing columns.
    """
    dictionary.check_capacity(config)
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h = dictionary.group_size
    g_v = dictionary.n_groups
    n_users = dictionary.entries.shape[0]

    residual = np.eye(n_users, dtype=complex)
    alive = np.ones(dictionary.n_columns, dtype=bool)
    support: list[int] = []
    counts = np.zeros(g_v, dtype=int)
    complete: list[int] = []
    trace = []  # (iteration, column, group, objective)
    mf_columns = 0

    for _ in range(dictionary.n_columns):
        candidates = np.flatnonzero(alive)
        mf_columns += len(candidates)
        best = match_atom(dictionary, residual, candidates, norm=matching_norm)
        support.append(best)
        alive[best] = False

        H_sel = dictionary.entries[:, support]
        F_sel = rzf(H_sel, alpha)
        residual = np.eye(n_users) - H_sel @ F_sel
        objective = rzf_objective(H_sel, F_sel, alpha)

        group = best // g_h
        counts[group] += 1
        if counts[group] == n_elem:
            complete.append(group)
            alive[group * g_h:(group + 1) * g_h] = False
        trace.append((len(support), best, group, objective))
        if len(complete) == m_rings:
            break
    else:
        raise RuntimeError("candidate set exhausted before enough groups filled")

    kept = set(complete)
    final_support = [g for g in support if g // g_h in kept]
    if len(final_support) != m_rings * n_elem:
        raise RuntimeError(
            f"kept {len(final_support)} atoms, expected {m_rings * n_elem}"
        )

    H_star = dictionary.entries[:, final_support]
    F_raw = rzf(H_star, alpha, gram="k")
    final_objective = rzf_objective(H_star, F_raw, alpha)
    F_star = normalize_columns(F_raw, power, allow_zero=True)

    placement = [(float(dictionary.psi[g]), float(dictionary.z[g]))
                 for g in final_support]
    heights = np.array([float(dictionary.z[m * g_h]) for m in complete])
    angles = np.array([
        [float(dictionary.psi[g]) for g in final_support if g // g_h == m]
        for m in complete
    ])

    return PlacementSolution(
        heights=heights,
        angles=angles,
        placement=placement,
        H_star=H_star,
        F_star=F_star,
        diagnostics={
            "iterations": len(support),
            "trace": trace,
            "objective_trace": [row[3] for row in trace],
            "final_objective": final_objective,
            "support": list(support),
            "final_support": final_support,
            "matched_filter_columns": mf_columns,
        },
    )

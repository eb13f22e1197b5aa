"""Joint angle/height placement: greedy matching over the full position
dictionary with regularized least-squares updates and group bookkeeping.

One atom is selected per iteration. A height slot whose selected-atom count
reaches the per-ring element count becomes a completed group and its leftover
candidates are retired. Matching may therefore pick more atoms than finally
needed; atoms of never-completed groups are dropped before the final refit.

The trials of a dictionary are solved as one batch: every trial runs the
same steps on its own inverse-Gram state, and a trial that has completed its
groups stops recording picks while the others go on.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig
from .precoding import GreedyState, normalize_columns, rzf, rzf_objective
from .solution import PlacementBatch, PlacementSolution


def solve_joint(dictionary: Dictionary, config: FclaConfig, alpha: float,
                power: float = 1.0) -> PlacementBatch:
    """Greedy joint selection of ring heights and element angles.

    Iterates: match the best live atom against the residual, add it to the
    inverse-Gram state, and retire any height group that just filled up.
    Stops once M groups are complete, keeps only their atoms, and refits the
    final precoder on that support before normalizing columns. Returns one
    solution per trial of the (B, K, G) dictionary, each equal to solving its
    trial alone.
    """
    dictionary.check_capacity(config)
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h = dictionary.group_size
    g_v = dictionary.n_groups
    entries = dictionary.entries
    rows = dictionary.rows()
    n_trials, n_users, n_columns = entries.shape
    trials = np.arange(n_trials)

    state = GreedyState(n_trials, n_users, alpha)
    alive = np.ones((n_trials, n_columns), dtype=bool)
    counts = np.zeros((n_trials, g_v), dtype=int)
    completed_at = np.full((n_trials, g_v), -1)  # step that filled each group
    iterations = np.zeros(n_trials, dtype=int)  # 0 while a trial is running
    picks, objectives = [], []
    mf_columns = np.zeros(n_trials, dtype=int)

    for step in range(n_columns):
        running = iterations == 0
        mf_columns[running] += alive[running].sum(axis=1)
        # finished trials keep picking; their picks are dropped and their
        # atoms zeroed, which leaves their state as it was
        best = state.pick(rows, alive | ~running[:, None])
        atoms = rows[trials, best][:, None]
        atoms[~running] = 0.0
        state.add(atoms)
        picks.append(best)
        objectives.append(state.objective())

        b, group = trials[running], best[running] // g_h
        alive[b, best[running]] = False
        counts[b, group] += 1
        filled = counts[b, group] == n_elem
        b, group = b[filled], group[filled]
        alive.reshape(n_trials, g_v, g_h)[b, group] = False
        completed_at[b, group] = step
        done = (completed_at[b] >= 0).sum(axis=1) == m_rings
        iterations[b[done]] = step + 1
        if iterations.all():
            break
    else:
        raise RuntimeError("candidate set exhausted before enough groups filled")

    picks, objectives = np.array(picks), np.array(objectives)
    return PlacementBatch(
        _solution(dictionary, entries[t], picks[:iterations[t], t].tolist(),
                  objectives[:iterations[t], t].tolist(), completed_at[t],
                  config, alpha, power, int(mf_columns[t]))
        for t in trials
    )


def _solution(dictionary: Dictionary, entries: np.ndarray, support: list,
              objective_trace: list, completed_at: np.ndarray,
              config: FclaConfig, alpha: float, power: float,
              mf_columns: int) -> PlacementSolution:
    """One trial's result from its picks: keep the atoms of the completed
    groups and refit the precoder on them."""
    g_h = dictionary.group_size
    filled = np.flatnonzero(completed_at >= 0)
    complete = filled[np.argsort(completed_at[filled])].tolist()
    kept = set(complete)
    final_support = [g for g in support if g // g_h in kept]
    if len(final_support) != config.m_rings * config.n_elements:
        raise RuntimeError(
            f"kept {len(final_support)} atoms, expected "
            f"{config.m_rings * config.n_elements}"
        )

    H_star = entries[:, final_support]
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
    trace = [(i + 1, g, g // g_h, objective)
             for i, (g, objective) in enumerate(zip(support, objective_trace))]

    return PlacementSolution(
        heights=heights,
        angles=angles,
        placement=placement,
        H_star=H_star,
        F_star=F_star,
        diagnostics={
            "iterations": len(support),
            "trace": trace,
            "objective_trace": objective_trace,
            "final_objective": final_objective,
            "support": support,
            "final_support": final_support,
            "matched_filter_columns": mf_columns,
        },
    )

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
from .precoding import GreedyState
from .solution import Solutions, solutions


def solve_joint(dictionary: Dictionary, config: FclaConfig,
                alpha: float) -> Solutions:
    """Greedy joint selection of ring heights and element angles.

    Iterates: match the best live atom against the residual, add it to the
    inverse-Gram state, and retire any height group that just filled up.
    Stops once M groups are complete and keeps only their atoms, in pick
    order, as the placement; rings take the groups in completion order.
    Returns the record (`fcla.solution.Solutions`) of every trial of the
    (B, G, K) dictionary, each trial's part equal to solving it alone, with
    its picks and objective per step.
    """
    dictionary.check_capacity(config)
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h = dictionary.group_size
    g_v = dictionary.n_groups
    rows = dictionary.rows
    n_trials, n_columns, n_users = rows.shape
    trials = np.arange(n_trials)

    state = GreedyState(n_trials, n_users, alpha)
    state.watch(rows)
    alive = np.ones((n_trials, n_columns), dtype=bool)
    counts = np.zeros((n_trials, g_v), dtype=int)
    completed_at = np.full((n_trials, g_v), -1)  # step that filled each group
    iterations = np.zeros(n_trials, dtype=int)  # 0 while a trial is running
    picks, objectives = [], []

    for step in range(n_columns):
        running = iterations == 0
        # finished trials keep picking; their picks are dropped and their
        # atoms zeroed, which leaves their state as it was
        best = state.pick(alive | ~running[:, None])
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

    picks, objectives = np.array(picks).T, np.array(objectives).T  # (B, steps)
    made = np.arange(picks.shape[1]) < iterations[:, None]
    kept = made & (np.take_along_axis(completed_at, picks // g_h, axis=1) >= 0)
    if not (kept.sum(axis=1) == m_rings * n_elem).all():
        raise RuntimeError(f"kept {kept.sum(axis=1).tolist()} atoms, expected "
                           f"{m_rings * n_elem} per trial")
    columns = picks[kept].reshape(n_trials, -1)
    # the M completed groups in completion order, after the -1s of the others
    slots = np.argsort(completed_at, axis=1)[:, -m_rings:]
    # the watch forms every column's filter, and each of the trial's adds
    # is carried into all of them, live or not
    return solutions(dictionary, columns, slots, alpha, iterations=iterations,
                     matched_filter_columns=n_columns * (iterations + 1),
                     picks=picks, pick_objectives=objectives)

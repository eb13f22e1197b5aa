"""Joint angle/height placement: greedy matching over the full position
dictionary with regularized least-squares updates and group bookkeeping.

One atom is selected per iteration. A height slot whose selected-atom count
reaches the per-ring element count becomes a completed group and its leftover
candidates are retired. Matching may therefore pick more atoms than finally
needed; atoms of never-completed groups are dropped before the final refit.
A picked atom, and each column of a completed group, leaves the greedy
state's kept scores (`GreedyState.drop`), so each pick is an argmax over
them, and a step where no group completes does no group bookkeeping.

The trials of a dictionary are solved as one batch: every trial runs the
same steps on its own inverse-Gram state, and a trial that has completed its
groups leaves the batch while the others go on. The state keeps the batch
order, swapping a leaving trial's rows in the dictionary behind the batch's
and back when it stops watching them, before the solve returns or raises.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .precoding import GreedyState
from .solution import Solutions, solutions


def solve_joint(dictionary: Dictionary, alpha: float) -> Solutions:
    """Greedy joint selection of ring heights and element angles.

    Iterates: match the best live atom against the residual, add it to the
    inverse-Gram state, drop it from the kept scores, and retire any height
    group that just filled up, dropping its columns.
    Stops once M groups are complete and keeps only their atoms, in pick
    order, as the placement; rings take the groups in completion order.
    The rings and their elements are those of the dictionary's config.
    Returns the record (`fcla.solution.Solutions`) of every trial of the
    (B, G, K) dictionary, each trial's part equal to solving it alone, with
    its picks and objective per step.
    """
    config = dictionary.config
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h, g_v = config.g_h, config.g_v
    n_trials, n_columns, n_users = dictionary.rows.shape

    state = GreedyState(n_trials, n_users, alpha)
    state.watch(dictionary.rows)
    counts = np.zeros((n_trials, g_v), dtype=int)
    completed_at = np.full((n_trials, g_v), -1)  # step that filled each group
    iterations = np.zeros(n_trials, dtype=int)  # 0 while a trial is running
    # each step fills a group or adds to one of the g_v unfilled ones, which
    # hold n_elem - 1 picks at most: m_rings groups fill within this many
    max_steps = g_v * (n_elem - 1) + m_rings
    # each step's pick and objective per trial, 0 once the trial has retired
    picks = np.zeros((max_steps, n_trials), dtype=int)
    objectives = np.zeros((max_steps, n_trials))
    angles = np.arange(g_h)
    try:
        for step in range(max_steps):
            b = state.trials  # the running trials, in batch order
            places = np.arange(len(b))
            best = state.pick()
            state.add(state.rows[places, best][:, None])
            state.drop(places, best)
            picks[step, b] = best
            objectives[step, b] = state.objective()

            group = best // g_h
            count = counts[b, group] + 1
            counts[b, group] = count
            filled = np.flatnonzero(count == n_elem)
            if not len(filled):
                continue
            state.drop(filled[:, None], group[filled, None] * g_h + angles)
            completed_at[b[filled], group[filled]] = step
            done = filled[(completed_at[b[filled]] >= 0).sum(axis=1) == m_rings]
            if len(done):
                iterations[b[done]] = step + 1
                state.retire(done)  # swaps b's entries: none is read after
            if not len(state.trials):
                break
        else:
            raise RuntimeError("candidate set exhausted before enough groups "
                               "filled")
    finally:
        state.unwatch()

    picks, objectives = picks[:step + 1].T, objectives[:step + 1].T  # (B, S)
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

"""Alternating placement optimization: per-ring greedy angle selection at
fixed heights, then greedy height selection at fixed angles, repeated for a
fixed number of outer rounds.

Both phases gather their candidates from the joint position dictionary:
column slot * G_H + angle is the response at grid angle `angle` and height
slot `slot`. In the angle phase all rings match atoms in parallel against the
same residual each inner step, then one update of the inverse-Gram state
(`fcla.precoding.GreedyState`) takes in every ring's pick. In the height
phase rings choose one height block each, sequentially, updating the state
between rings.

Every trial of a (B, G, K) dictionary runs through the same steps at once;
each trial's picks equal those of solving it alone.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig
from .precoding import GreedyState, sinr
from .solution import Solutions, refit, solutions


def initial_heights(g_v: int, m_rings: int) -> np.ndarray:
    """Evenly spread starting height slots, one per ring, for g_v >= m_rings
    slots; they are distinct because the spread is at least one slot."""
    span = (g_v - 1) / max(m_rings - 1, 1)
    return np.round(np.arange(m_rings) * span).astype(int)


def _distinct(index: np.ndarray) -> bool:
    """Whether every row along the last axis holds distinct values."""
    return not (np.diff(np.sort(index, axis=-1), axis=-1) == 0).any()


def optimize_angles(dictionary: Dictionary, slots, n_elements: int,
                    alpha: float):
    """Select each ring's element angles with ring m pinned at height slot
    slots[m].

    Each ring takes n_elements angles. Rings pick one live angle apiece per
    inner step (lowest index on ties), all against the residual from the
    previous step, so the scores of every ring's columns, watched once per
    phase, serve all rings; one rank-M update then takes in all the picks.
    slots is (M,), shared by every trial, or (B, M). Returns the (B, M, N)
    array of angle indices and a diagnostics dict whose arrays lead with the
    trial axis.
    """
    n_trials, _, n_users = dictionary.rows.shape
    slots = np.asarray(slots, dtype=int)
    slots = np.broadcast_to(slots, (n_trials, slots.shape[-1]))
    if not _distinct(slots):
        raise ValueError(f"rings share a height slot: {slots.tolist()}")
    m_rings = slots.shape[1]
    g_h = dictionary.group_size
    ring_columns = slots[..., None] * g_h + np.arange(g_h)  # (B, M, G_H)
    state = GreedyState(n_trials, n_users, alpha)
    state.watch(dictionary.take(ring_columns.reshape(n_trials, -1)))
    alive = np.ones((n_trials, m_rings, g_h), dtype=bool)
    picks, objectives = [], []
    for _ in range(n_elements):
        pick = state.pick(alive)  # (B, M)
        np.put_along_axis(alive, pick[..., None], False, axis=2)
        state.add(dictionary.take(slots * g_h + pick))
        picks.append(pick)
        objectives.append(state.objective())

    diag = {
        "objective_trace": np.stack(objectives, axis=1),
        # every watched column is scored at the watch and updated before
        # each later pick
        "matched_filter_columns": m_rings * g_h * n_elements,
    }
    return np.stack(picks, axis=2), diag


def optimize_heights(dictionary: Dictionary, angles, alpha: float):
    """Assign one height slot to each ring with its angle indices frozen.

    Rings go in order; ring m scores every live height slot by the Frobenius
    norm of its block's matched filter against the current residual (all
    slots in one matched filter), takes the best, and a rank-N update adds
    the block. angles is (M, N), shared by every trial, or (B, M, N). Returns
    the (B, M) slot array and diagnostics whose arrays lead with the trial
    axis.
    """
    n_trials, _, n_users = dictionary.rows.shape
    angles = np.atleast_2d(np.asarray(angles, dtype=int))
    angles = np.broadcast_to(angles, (n_trials,) + angles.shape[-2:])
    if not _distinct(angles):
        raise ValueError(f"a ring repeats an angle slot: {angles.tolist()}")
    m_rings, n_elem = angles.shape[1:]
    g_h, g_v = dictionary.group_size, dictionary.n_groups

    state = GreedyState(n_trials, n_users, alpha)
    alive = np.ones((n_trials, g_v), dtype=bool)
    slots = np.empty((n_trials, m_rings), dtype=int)
    objectives = []
    slot_columns = np.arange(g_v)[:, None] * g_h  # (G_V, 1)
    for m in range(m_rings):
        blocks = slot_columns + angles[:, m, None, :]  # (B, G_V, N)
        state.watch(dictionary.take(blocks.reshape(n_trials, -1)),
                    block=n_elem)
        best = state.pick(alive)
        # the next ring's blocks are gathered without these beside them
        state.unwatch()
        slots[:, m] = best
        alive[np.arange(n_trials), best] = False
        state.add(dictionary.take(best[:, None] * g_h + angles[:, m]))
        objectives.append(state.objective())

    diag = {
        "objective_trace": np.stack(objectives, axis=1),
        # each ring's watch scores every slot's block; its add is never
        # carried into them
        "matched_filter_columns": m_rings * g_v * n_elem,
    }
    return slots, diag


def solve_alternating(dictionary: Dictionary, config: FclaConfig,
                      alpha: float, n_outer: int, power: float = 1.0,
                      sigma2: float = 1.0, rate_trace: bool = False
                      ) -> Solutions:
    """Run the angle and height phases alternately for n_outer rounds.

    Heights from one round seed the next round's angle phase. With
    rate_trace, the sum rate of each round's placement (its refit precoder
    normalized to the power budget) is recorded as sum_rate_trace. Returns
    the record (`fcla.solution.Solutions`) of every trial of the (B, G, K)
    dictionary, each trial's part equal to solving it alone, with each
    round's phase objectives.
    """
    if n_outer < 1:
        raise ValueError("need at least one outer round")
    dictionary.check_capacity(config)
    n_trials = len(dictionary.rows)
    g_h = dictionary.group_size
    slots = initial_heights(dictionary.n_groups, config.m_rings)

    angle_objectives, height_objectives, sum_rates = [], [], []
    mf_columns = 0
    for _ in range(n_outer):
        angles, diag_a = optimize_angles(dictionary, slots, config.n_elements,
                                        alpha)
        slots, diag_v = optimize_heights(dictionary, angles, alpha)
        mf_columns += diag_a["matched_filter_columns"] + diag_v["matched_filter_columns"]
        angle_objectives.append(diag_a["objective_trace"])
        height_objectives.append(diag_v["objective_trace"])
        # ring-major blocks of N angle columns
        columns = (slots[..., None] * g_h + angles).reshape(n_trials, -1)
        if rate_trace:
            H, _, F = refit(dictionary, columns, alpha, power)
            sum_rates.append(sinr(H, F, sigma2).sum_rate)

    return solutions(dictionary, columns, slots, alpha, power,
                     iterations=n_outer, matched_filter_columns=mf_columns,
                     angle_objectives=np.stack(angle_objectives, axis=1),
                     height_objectives=np.stack(height_objectives, axis=1),
                     sum_rate_trace=(np.stack(sum_rates, axis=1)
                                     if rate_trace else None))

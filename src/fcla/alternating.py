"""Alternating placement optimization: per-ring greedy angle selection at
fixed heights, then greedy height selection at fixed angles, repeated for a
fixed number of outer rounds.

Both phases gather their candidates from the joint position dictionary:
column slot * G_H + angle is the response at grid angle `angle` and height
slot `slot`. In the angle phase all rings match atoms in parallel against the
same residual each inner step, then one update of the inverse-Gram state
(`fcla.precoding.GreedyState`) takes in every ring's pick. In the height
phase rings choose one height block each, sequentially, updating the state
between rings. The angle phase keeps no mask: a ring's picked angle leaves the
state's kept scores (`GreedyState.drop`), and each pick is an argmax over
them. The height phase keeps no scores: each ring scores its blocks once
(`GreedyState.scores`), and takes the best slot no earlier ring took.

Every trial of a (B, G, K) dictionary runs through the same steps at once;
each trial's picks equal those of solving it alone. A trial whose round ends
on the height slots that seeded it has settled: the angle phase is a
function of the slots alone and the height phase of the angles alone, so
each later round would repeat that round exactly. Settled trials leave the
batch, and their later rounds are recorded as copies of the settled one.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig
from .precoding import GreedyState
from .solution import Solutions, solutions


def initial_heights(g_v: int, m_rings: int) -> np.ndarray:
    """Evenly spread starting height slots, one per ring, for g_v >= m_rings
    slots; they are distinct because the spread is at least one slot."""
    span = (g_v - 1) / max(m_rings - 1, 1)
    return np.round(np.arange(m_rings) * span).astype(int)


def _distinct(index: np.ndarray) -> bool:
    """Whether every row along the last axis holds distinct values."""
    return not (np.diff(np.sort(index, axis=-1), axis=-1) == 0).any()


def optimize_angles(dictionary: Dictionary, slots, n_elements: int,
                    alpha: float, trials=None):
    """Select each ring's element angles with ring m pinned at height slot
    slots[m].

    Each ring takes n_elements angles. Rings pick one angle apiece per
    inner step (lowest index on ties), all against the residual from the
    previous step, so the scores of every ring's columns, watched once per
    phase, serve all rings; one rank-M update takes in all the picks before
    the next step, and none follows the last. Each pick then leaves the
    kept scores.
    slots is (M,), shared by every trial, or (T, M) for the T trials listed
    by trials (`Dictionary.take`; default all B). Returns the (T, M, N)
    angle indices.
    """
    n_users = dictionary.rows.shape[2]
    n_trials = len(dictionary.rows) if trials is None else len(trials)
    slots = np.asarray(slots, dtype=int)
    slots = np.broadcast_to(slots, (n_trials, slots.shape[-1]))
    if not _distinct(slots):
        raise ValueError(f"rings share a height slot: {slots.tolist()}")
    m_rings = slots.shape[1]
    g_h = dictionary.group_size
    ring_columns = slots[..., None] * g_h + np.arange(g_h)  # (T, M, G_H)
    state = GreedyState(n_trials, n_users, alpha)
    state.watch(dictionary.take(ring_columns.reshape(n_trials, -1), trials))
    trial_index = np.arange(n_trials)[:, None]
    # each ring's first watched column, in the (T, M * G_H) kept scores
    ring_start = np.arange(m_rings) * g_h
    picks = []
    for _ in range(n_elements):
        if picks:
            state.add(dictionary.take(slots * g_h + picks[-1], trials))
            state.drop(trial_index, ring_start + picks[-1])
        picks.append(state.pick(m_rings))  # (T, M)
    return np.stack(picks, axis=2)


def optimize_heights(dictionary: Dictionary, angles, alpha: float,
                     trials=None):
    """Assign one height slot to each ring with its angle indices frozen.

    Rings go in order; ring m scores every height slot by the Frobenius
    norm of its block's matched filter against the current residual (all
    slots in one matched filter), takes the best slot no earlier ring took
    (the lowest on ties; ValueError if none is left), and a rank-N update
    adds the block before the next ring scores; none follows the last ring.
    angles is (M, N), shared by every trial, or (T, M, N) for the
    T trials listed by trials (default all B). Returns the (T, M) slots.
    """
    n_users = dictionary.rows.shape[2]
    n_trials = len(dictionary.rows) if trials is None else len(trials)
    angles = np.atleast_2d(np.asarray(angles, dtype=int))
    angles = np.broadcast_to(angles, (n_trials,) + angles.shape[-2:])
    if not _distinct(angles):
        raise ValueError(f"a ring repeats an angle slot: {angles.tolist()}")
    m_rings, n_elem = angles.shape[1:]
    g_h, g_v = dictionary.group_size, dictionary.n_groups
    if m_rings > g_v:  # ring g_v would find every height slot taken
        raise ValueError(f"candidate set is empty: all {g_v} slots taken")

    state = GreedyState(n_trials, n_users, alpha)
    slots = np.empty((n_trials, m_rings), dtype=int)
    slot_columns = np.arange(g_v)[:, None] * g_h  # (G_V, 1)
    trial_index = np.arange(n_trials)[:, None]
    for m in range(m_rings):
        if m:
            state.add(dictionary.take(
                slots[:, m - 1, None] * g_h + angles[:, m - 1], trials))
        blocks = slot_columns + angles[:, m, None, :]  # (T, G_V, N)
        score = state.scores(
            dictionary.take(blocks.reshape(n_trials, -1), trials), n_elem)
        score[trial_index, slots[:, :m]] = -np.inf
        slots[:, m] = score.argmax(axis=1)
    return slots


def solve_alternating(dictionary: Dictionary, config: FclaConfig,
                      alpha: float, n_outer: int) -> Solutions:
    """Run the angle and height phases alternately for n_outer rounds.

    Heights from one round seed the next round's angle phase. A trial whose
    round returns the slots that seeded it stops there, and its later rounds
    repeat that round. Returns the record (`fcla.solution.Solutions`) of
    every trial of the (B, G, K) dictionary, each trial's part equal to
    solving it alone, with each round's placement columns.
    """
    if n_outer < 1:
        raise ValueError("need at least one outer round")
    dictionary.check_capacity(config)
    n_trials = len(dictionary.rows)
    m_rings, n_elem = config.m_rings, config.n_elements
    g_h = dictionary.group_size

    round_columns = np.empty((n_trials, n_outer, m_rings * n_elem), dtype=int)
    rounds_run = np.empty(n_trials, dtype=int)
    running = np.arange(n_trials)
    seed_slots = np.broadcast_to(
        initial_heights(dictionary.n_groups, m_rings), (n_trials, m_rings))
    for r in range(n_outer):
        angles = optimize_angles(dictionary, seed_slots, n_elem, alpha,
                                 running)
        slots = optimize_heights(dictionary, angles, alpha, running)
        # ring-major blocks of N angle columns; each running trial's round
        # fills its entries from r on, so those of a trial that settles here
        # stay this round's
        columns = (slots[..., None] * g_h + angles).reshape(len(running), -1)
        round_columns[running, r:] = columns[:, None]
        rounds_run[running] = r + 1
        moved = (slots != seed_slots).any(axis=1)
        running, seed_slots = running[moved], slots[moved]
        if not len(running):
            break

    columns = round_columns[:, -1]
    # per round run, the angle phase watches each ring's G_H columns and
    # carries its N - 1 adds into them; the height phase scores every slot's
    # N-column block for each ring and never carries an add into them
    mf_columns = rounds_run * m_rings * n_elem * (g_h + dictionary.n_groups)
    return solutions(dictionary, columns, columns[:, ::n_elem] // g_h, alpha,
                     iterations=n_outer, matched_filter_columns=mf_columns,
                     round_columns=round_columns)

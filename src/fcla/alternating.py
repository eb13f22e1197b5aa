"""Alternating placement optimization: per-ring greedy angle selection at
fixed heights, then greedy height selection at fixed angles, repeated for a
fixed number of outer rounds.

Both phases gather their candidates from the joint position dictionary:
column slot * G_H + angle is the response at grid angle `angle` and height
slot `slot`. In the angle phase all rings match atoms in parallel against the
same residual each inner step, then one joint refit updates the residual. In
the height phase rings choose one height block each, sequentially, refitting
between rings.
"""

from __future__ import annotations

import numpy as np

from .channel import Dictionary
from .geometry import FclaConfig
from .precoding import normalize_columns, rzf, rzf_objective, sinr
from .solution import PlacementSolution


def initial_heights(g_v: int, m_rings: int) -> np.ndarray:
    """Evenly spread starting height slots, one per ring."""
    if g_v < m_rings:
        raise ValueError(f"{g_v} height slots cannot host {m_rings} rings")
    span = (g_v - 1) / max(m_rings - 1, 1)
    slots = np.round(np.arange(m_rings) * span).astype(int)
    if len(set(slots.tolist())) != m_rings:
        raise RuntimeError(f"starting slots {slots.tolist()} are not distinct")
    return slots


def optimize_angles(dictionary: Dictionary, slots, config: FclaConfig,
                    alpha: float):
    """Select each ring's element angles with ring m pinned at height slot
    slots[m].

    Rings pick one live angle apiece per inner step (lowest index on ties),
    all against the residual from the previous step, so one matched filter
    scores every ring's live columns at once; the refit and residual update
    then run once over every column selected so far. Returns the (M, N) array
    of angle indices, the final channel and refit precoder, and a diagnostics
    dict.
    """
    slots = np.asarray(slots, dtype=int)
    m_rings = len(slots)
    if len(set(slots.tolist())) != m_rings:
        raise ValueError(f"rings share a height slot: {slots.tolist()}")
    g_h = dictionary.group_size
    n_users = dictionary.entries.shape[0]
    ring_columns = slots[:, None] * g_h + np.arange(g_h)  # (M, G_H)

    residual = np.eye(n_users, dtype=complex)
    alive = np.ones((m_rings, g_h), dtype=bool)
    picks = []
    support: list[int] = []
    objective_trace = []
    mf_columns = 0
    H_sel = np.zeros((n_users, 0), dtype=complex)
    F_sel = np.zeros((0, n_users), dtype=complex)

    for _ in range(config.n_elements):
        # every ring has the same number of live angles, so the live columns
        # reshape ring-major into (M, live)
        live = np.nonzero(alive)[1].reshape(m_rings, -1)
        cols = ring_columns[alive]
        mf_columns += len(cols)
        matched = dictionary.entries[:, cols].conj().T @ residual
        scores = np.sum(np.abs(matched) ** 2, axis=1).reshape(m_rings, -1)
        pick = live[np.arange(m_rings), np.argmax(scores, axis=1)]
        alive[np.arange(m_rings), pick] = False
        picks.append(pick)
        support.extend((slots * g_h + pick).tolist())
        H_sel = dictionary.entries[:, support]
        F_sel = rzf(H_sel, alpha)
        residual = np.eye(n_users) - H_sel @ F_sel
        objective_trace.append(rzf_objective(H_sel, F_sel, alpha))

    diag = {
        "objective_trace": objective_trace,
        "support": support,
        "matched_filter_columns": mf_columns,
    }
    return np.stack(picks, axis=1), H_sel, F_sel, diag


def optimize_heights(dictionary: Dictionary, angles, config: FclaConfig,
                     alpha: float):
    """Assign one height slot to each ring with its angle indices frozen.

    Rings go in order; ring m scores every live height slot by the Frobenius
    norm of its block's matched filter against the current residual (all
    slots in one matched filter), takes the best, and the joint refit over
    all placed rings updates the residual. Returns the (M,) slot array, final
    channel and refit precoder, and diagnostics.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=int))
    m_rings, n_elem = angles.shape
    if any(len(set(ring.tolist())) != n_elem for ring in angles):
        raise ValueError(f"a ring repeats an angle slot: {angles.tolist()}")
    g_h, g_v = dictionary.group_size, dictionary.n_groups
    if g_v < m_rings:
        raise ValueError(f"{g_v} height slots cannot host {m_rings} rings")
    n_users = dictionary.entries.shape[0]

    residual = np.eye(n_users, dtype=complex)
    alive = np.ones(g_v, dtype=bool)
    slots = np.empty(m_rings, dtype=int)
    support: list[int] = []
    objective_trace = []
    mf_columns = 0
    H_sel = np.zeros((n_users, 0), dtype=complex)
    F_sel = np.zeros((0, n_users), dtype=complex)

    for m in range(m_rings):
        live = np.flatnonzero(alive)
        blocks = live[:, None] * g_h + angles[m]  # (live, N)
        mf_columns += blocks.size
        matched = dictionary.entries[:, blocks.ravel()].conj().T @ residual
        scores = np.sum(np.abs(matched.reshape(len(live), -1)) ** 2, axis=1)
        best = int(np.argmax(scores))
        slots[m] = live[best]
        alive[live[best]] = False
        support.extend(blocks[best].tolist())
        H_sel = dictionary.entries[:, support]
        F_sel = rzf(H_sel, alpha)
        residual = np.eye(n_users) - H_sel @ F_sel
        objective_trace.append(rzf_objective(H_sel, F_sel, alpha))

    diag = {
        "objective_trace": objective_trace,
        "matched_filter_columns": mf_columns,
    }
    return slots, H_sel, F_sel, diag


def solve_alternating(dictionary: Dictionary, config: FclaConfig,
                      alpha: float, n_outer: int, power: float = 1.0,
                      sigma2: float = 1.0,
                      early_stop_tol: float | None = None) -> PlacementSolution:
    """Run the angle and height phases alternately for n_outer rounds.

    Heights from one round seed the next round's angle phase. The sum rate of
    each round's placement (with the refit precoder normalized to the power
    budget) is recorded as a convergence trace; an optional relative-change
    early stop on that trace is available but off by default.
    """
    if n_outer < 1:
        raise ValueError("need at least one outer round")
    dictionary.check_capacity(config)
    slots = initial_heights(dictionary.n_groups, config.m_rings)

    sum_rate_trace = []
    phase_objectives = []
    mf_columns = 0
    angles = None
    H_star = None
    F_raw = None
    final_objective = None

    for _ in range(n_outer):
        angles, _, _, diag_a = optimize_angles(dictionary, slots, config, alpha)
        slots, H_star, F_raw, diag_v = optimize_heights(dictionary, angles,
                                                        config, alpha)
        mf_columns += diag_a["matched_filter_columns"] + diag_v["matched_filter_columns"]
        phase_objectives.append({
            "angle": diag_a["objective_trace"],
            "height": diag_v["objective_trace"],
        })
        final_objective = diag_v["objective_trace"][-1]
        rate = sinr(H_star, normalize_columns(F_raw, power, allow_zero=True),
                    sigma2).sum_rate
        sum_rate_trace.append(rate)
        if (early_stop_tol is not None and len(sum_rate_trace) >= 2
                and abs(sum_rate_trace[-1] - sum_rate_trace[-2])
                < early_stop_tol * max(abs(sum_rate_trace[-2]), 1e-12)):
            break

    F_star = normalize_columns(F_raw, power, allow_zero=True)
    # column order of the final channel: ring-major blocks of N angles
    columns = slots[:, None] * dictionary.group_size + angles
    heights = dictionary.z[columns[:, 0]]
    angle_values = dictionary.psi[columns]
    placement = [(float(dictionary.psi[g]), float(dictionary.z[g]))
                 for g in columns.ravel()]

    return PlacementSolution(
        heights=heights,
        angles=angle_values,
        placement=placement,
        H_star=H_star,
        F_star=F_star,
        diagnostics={
            "sum_rate_trace": sum_rate_trace,
            "phase_objectives": phase_objectives,
            "final_objective": final_objective,
            "outer_iterations": len(sum_rate_trace),
            "matched_filter_columns": mf_columns,
        },
    )

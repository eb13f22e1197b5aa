"""The one record every method returns, and the one builder that makes it
from a method's chosen placement: check that the placement is M rings of N
grid positions, gather the channel there, and refit the RZF precoder on it.
Power and noise only rate a placement, which `fcla.harness.rates` does."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Dictionary
from .precoding import rzf, rzf_objective


@dataclass(eq=False)
class Solutions:
    """One method's placement, channel and precoder for each of B trials;
    every array leads with the trial axis.

    columns (B, M*N) are the placement's dictionary columns, in the order of
    H_star's columns and F's rows. Ring m sits at height slot slots[:, m] and
    height heights[:, m] and holds the angles angles[:, m] (B, M, N) of that
    slot's columns, in column order, on the track radius (one float, the
    dictionary's). H_star (B, K, M*N) is the channel at the placement and F
    (B, M*N, K) its RZF precoder, not yet normalized to a power budget;
    objective (B,) is the RZF objective of that refit.
    iterations (B,) counts the solver's iterations: greedy steps of fcla-j,
    outer rounds of fcla-a, none for ucla.
    matched_filter_columns (B,) counts the candidate rows its matched filters
    scored, formed afresh or updated after an add, live or not.

    The traces are None for a method that keeps none. picks and
    pick_objectives (B, S) are fcla-j's column and RZF objective after each
    step, read up to iterations[t]. round_columns (B, R, M*N) are fcla-a's
    placement columns of each round, the last being columns.
    """

    columns: np.ndarray
    slots: np.ndarray
    heights: np.ndarray
    angles: np.ndarray
    radius: float
    H_star: np.ndarray
    F: np.ndarray
    objective: np.ndarray
    iterations: np.ndarray
    matched_filter_columns: np.ndarray
    picks: np.ndarray | None = None
    pick_objectives: np.ndarray | None = None
    round_columns: np.ndarray | None = None

    @property
    def diagnostics(self) -> dict:
        """Batch totals under the keys the benchmark's tracer
        (perfbench/tracing.py) reads: "iterations", "matched_filter_columns",
        every pick made ("support") and every kept column
        ("final_support"). It is that reader's view only, and goes when the
        tracer reads the fields themselves."""
        support = np.empty(0, dtype=int)
        if self.picks is not None:
            made = np.arange(self.picks.shape[1]) < self.iterations[:, None]
            support = self.picks[made]
        return {"iterations": int(self.iterations.sum()),
                "matched_filter_columns": int(self.matched_filter_columns.sum()),
                "support": support, "final_support": self.columns.ravel()}


def refit(dictionary: Dictionary, columns: np.ndarray, alpha: float):
    """Each trial's channel at its placement columns (B, n) of the
    dictionary, (B, K, n), and the RZF precoder refit on it, (B, n, K)."""
    H = np.conj(np.swapaxes(dictionary.take(columns), 1, 2), order="C")
    return H, rzf(H, alpha)


def _rings(columns: np.ndarray, slots: np.ndarray, g_h: int) -> np.ndarray:
    """Each column's ring, (B, M*N): the position of its height slot, column
    // g_h, in slots (B, M).

    Checks the placement's structure on the grid. Every trial needs M
    distinct slots, M*N distinct columns, and N columns in each slot, so the
    columns' slots are the slots, each repeated N times. Grid positions sit
    at least the spacing floor apart, so such a placement keeps every
    spacing rule. Raises ValueError naming the trial and the offending slot
    or column.
    """
    n_elem = columns.shape[1] // slots.shape[1]
    for index, name in ((slots, "height slot"), (columns, "column")):
        ordered = np.sort(index, axis=1)
        twice = np.diff(ordered, axis=1) == 0
        if twice.any():
            t, i = np.argwhere(twice)[0]
            raise ValueError(f"trial {t}: {name} {ordered[t, i]} is taken twice")
    member = columns[..., None] // g_h == slots[:, None, :]  # (B, M*N, M)
    outside = ~member.any(axis=2)
    if outside.any():
        t, i = np.argwhere(outside)[0]
        raise ValueError(
            f"trial {t}: column {columns[t, i]} lies in height slot "
            f"{columns[t, i] // g_h}, which is no ring's "
            f"(slots {slots[t].tolist()})")
    counts = member.sum(axis=1)
    uneven = counts != n_elem
    if uneven.any():
        t, m = np.argwhere(uneven)[0]
        raise ValueError(f"trial {t}: height slot {slots[t, m]} holds "
                         f"{counts[t, m]} columns, not {n_elem}")
    return member.argmax(axis=2)


def solutions(dictionary: Dictionary, columns: np.ndarray, slots: np.ndarray,
              alpha: float, iterations=0, matched_filter_columns=0,
              **traces) -> Solutions:
    """The record of a method's choice on each trial of the dictionary.

    columns (B, M*N) are each trial's placement columns, in the order of its
    channel's columns, and slots (B, M) the height slot of each ring; the
    placement must pass the structural check of `_rings`. The counters are
    per trial or one for all, and traces fill the record's trace fields.
    """
    g_h = dictionary.group_size
    ring = _rings(columns, slots, g_h)
    by_ring = np.take_along_axis(columns, np.argsort(ring, kind="stable"), -1)
    H_star, F = refit(dictionary, columns, alpha)
    n_trials = len(columns)
    return Solutions(
        columns=columns, slots=slots, heights=dictionary.z[slots * g_h],
        angles=dictionary.psi[by_ring].reshape(*slots.shape, -1),
        radius=dictionary.radius,
        H_star=H_star, F=F,
        objective=rzf_objective(H_star, F, alpha),
        iterations=np.full(n_trials, iterations, dtype=int),
        matched_filter_columns=np.full(n_trials, matched_filter_columns,
                                       dtype=int),
        **traces)

"""Direct rescoring, as an oracle for the greedy solvers' kept scores.

`fcla.precoding.GreedyState` forms the matched filter of its watched
candidates once and then carries every added column into their scores by its
rank-1 updates, and a dropped candidate's score is -inf. The oracle
recomputes every kept score from scratch at every read, ||a^H G^-1||^2 from
the current G^-1, as the solvers did before they kept their scores, and
keeps only the drops; a solver run on it must pick exactly what it picks on
the package's state. Scores formed without watching (`GreedyState.scores`)
are direct already. A second subclass counts the rows the package's state
scores and its adds, against which the solvers' work counters are checked.
"""

import numpy as np

from fcla.precoding import GreedyState


def direct_scores(rows, inverse, block=1):
    """||a^H G^-1||^2 per candidate, from the candidates' conjugated columns
    a^H stacked as rows: (B, n, K) to (B, n / block). A candidate of block
    consecutive columns scores the sum of their scores."""
    matched = np.abs(rows @ inverse) ** 2
    return matched.reshape(*rows.shape[:-2], -1,
                           block * rows.shape[-1]).sum(axis=-1)


class RescoringState(GreedyState):
    """The greedy state with every score recomputed at every read: it
    watches its candidates as the package's state does, rows and batch order
    included, but in place of the scores that the watch formed it keeps a
    penalty per candidate, 0 until drop() sets it to -inf, which retire()
    swaps with its trial as it swaps kept scores. Each add() only updates
    G^-1, and a read adds the penalties to the direct scores."""

    def watch(self, rows):
        super().watch(rows)
        self._score = np.zeros_like(self._score)

    def add(self, rows):
        # no carry into the penalties
        penalty, self._score = self._score, None
        super().add(rows)
        self._score = penalty

    @property
    def score(self):
        return direct_scores(self.rows, self.inverse) + self._score


class CountingState(GreedyState):
    """The greedy state counting its work: in rows_scored, the candidate
    rows it scores per trial (the rows its matched filter forms at each
    scores(), a watch's included, and the watched rows each add is carried
    into); in trial_rows_carried, the watched rows each add is carried into,
    times the trials in the batch at that add; and in adds, its adds."""

    def __init__(self, n_trials, n_users, alpha):
        super().__init__(n_trials, n_users, alpha)
        self.rows_scored = self.trial_rows_carried = self.adds = 0
        self.watched_rows = 0

    def scores(self, rows, block=1):
        self.rows_scored += rows.shape[1]
        return super().scores(rows, block)

    def watch(self, rows):
        super().watch(rows)
        self.watched_rows = rows.shape[1]

    def unwatch(self):
        super().unwatch()
        self.watched_rows = 0

    def add(self, rows):
        self.rows_scored += self.watched_rows
        self.trial_rows_carried += len(self.inverse) * self.watched_rows
        self.adds += 1
        super().add(rows)

"""Regularized zero-forcing precoder family, power normalization, link rates,
and the inverse-Gram state that the greedy placement solvers share."""

from __future__ import annotations

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """The unregularized system is rank deficient."""


class ScoreRangeError(ValueError):
    """alpha puts a greedy score out of floating-point range; the message
    names alpha."""


# reciprocal-condition floor below which an alpha=0 solve is rejected
_RCOND_FLOOR = 1e-12
# rows per piece of the matched filter that GreedyState.scores forms, rounded
# down to whole candidates
_CHUNK = 16


def rzf(H: np.ndarray, alpha: float) -> np.ndarray:
    """Regularized zero-forcing precoder H^H (H H^H + alpha I)^-1.

    The same matrix equals (H^H H + alpha I)^-1 H^H, so the solve runs on
    the smaller Gram matrix: the users' (K x K) when K <= N, else the
    antennas' (N x N), the only one invertible at alpha=0 when K > N.
    alpha=0 requires a full-rank system and raises SingularMatrixError
    otherwise. H (..., K, N) may stack matrices along leading axes; each
    (..., N, K) precoder then equals its matrix's own.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2:
        raise ValueError("H must be a matrix or a stack of matrices")
    if alpha < 0.0:
        raise ValueError(f"regularization must be >= 0, got {alpha}")
    n_users, n_ant = H.shape[-2:]
    if n_users <= n_ant:
        # H^H is not kept: it is freed before the solve
        G = H @ _hermitian(H) + alpha * np.eye(n_users)
        _require_invertible(G, alpha)
        # (G^-1 H)^H = H^H G^-1 because G is Hermitian
        return _hermitian(np.linalg.solve(G, H))
    H_h = _hermitian(H)
    G = H_h @ H + alpha * np.eye(n_ant)
    _require_invertible(G, alpha)
    return np.linalg.solve(G, H_h)


def _hermitian(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(np.conj(A), -1, -2)


def _require_invertible(G: np.ndarray, alpha: float) -> None:
    if alpha > 0.0:
        return
    rcond = np.min(1.0 / np.linalg.cond(G))
    if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
        raise SingularMatrixError(
            f"Gram matrix is singular to working precision (rcond={rcond:.2e}); "
            "use alpha > 0"
        )


def normalize_columns(F: np.ndarray, power: float) -> np.ndarray:
    """Scale each precoder column to carry power/K, so the total is exactly power.

    A zero column stays at zero (that user is unservable, e.g. entirely
    behind every directional element) and only the remaining columns are
    scaled to their power/K share. F (..., N, K) may stack precoders along
    leading axes, and power may then hold one budget per precoder (...),
    or one for all.

    A column whose norm would leave the floating-point range, such as an
    RZF precoder's at a huge alpha, is first scaled by the power of two that
    brings its largest real or imaginary part into [0.5, 1), so it is rated
    as any other; the scaling is exact, so every other column comes out bit
    for bit as without it.
    """
    F = np.asarray(F, dtype=complex)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(F, axis=-2)
    # far enough above the smallest float that a sum of squares loses nothing
    if not ((norms > 1e-150) & (norms < np.inf)).all():
        peak = np.maximum(np.abs(F.real), np.abs(F.imag)).max(axis=-2)
        # a scale of at most 2^1022, which is finite
        exponent = np.maximum(np.frexp(peak)[1], -1022)
        F = F * np.ldexp(1.0, -exponent)[..., None, :]
        norms = np.linalg.norm(F, axis=-2)
    zero = norms == 0.0
    target = np.sqrt(np.asarray(power)[..., None] / F.shape[-1])
    scale = np.where(zero, 0.0, target / np.where(zero, 1.0, norms))
    return F * scale[..., None, :]


def sinr(H_true: np.ndarray, F: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-user rates log2(1 + SINR), with SINR |h_k^H f_k|^2 /
    (sum_{i != k} |h_k^H f_i|^2 + sigma2) and rows of H_true acting as h_k^H.

    H_true (..., K, N) and F (..., N, K) may stack matrices along leading
    axes; the rates are then (..., K), K per matrix."""
    H_true = np.asarray(H_true, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if sigma2 <= 0.0:
        raise ValueError("noise power must be positive")
    if H_true.ndim < 2 or F.shape != (*H_true.shape[:-2], *H_true.shape[:-3:-1]):
        raise ValueError(
            f"shape mismatch: H is {H_true.shape}, F is {F.shape}"
        )
    cross = np.abs(H_true @ F) ** 2  # (k, i): power of stream i at user k
    signal = np.diagonal(cross, axis1=-2, axis2=-1)
    interference = cross.sum(axis=-1) - signal
    return np.log2(1.0 + signal / (interference + sigma2))


def rzf_objective(H: np.ndarray, F: np.ndarray, alpha: float) -> np.ndarray:
    """Regularized interference objective ||I - H F||_F^2 + alpha ||F||_F^2.

    H (..., K, N) and F (..., N, K) may stack matrices along leading axes;
    the objective (...) holds one value per matrix."""
    H = np.asarray(H, dtype=complex)
    F = np.asarray(F, dtype=complex)
    residual = np.eye(H.shape[-2]) - H @ F
    objective = (np.linalg.norm(residual, axis=(-2, -1)) ** 2
                 + alpha * np.linalg.norm(F, axis=(-2, -1)) ** 2)
    return objective


class GreedyState:
    """Greedy atom selection under RZF precoding, for a stack of trials.

    Per trial it holds the inverse Gram matrix G^-1 = (H H^H + alpha I)^-1 of
    the columns H picked so far (none at the start, so G^-1 = I / alpha). With
    F = rzf(H, alpha) three identities hold:

    - the residual I - H F equals alpha G^-1;
    - the objective ||I - H F||_F^2 + alpha ||F||_F^2 equals alpha tr G^-1;
    - a candidate column a scores ||a^H G^-1||^2, its matched-filter response
      to the residual up to the constant factor alpha^2.

    Adding r columns is r rank-1 updates of G^-1, so a greedy step costs a
    few small matrix-vector products instead of a refit (Batch-OMP,
    Rubinstein, Zibulevsky & Elad 2008; the matrix-residual score of
    simultaneous OMP, Tropp, Gilbert & Strauss 2006). scores() forms the
    matched filter of any candidate set and keeps nothing. Only a watched
    set of one column per candidate keeps its scores: watch() forms them
    once, and each add() carries the same update into them, as the
    candidates' products with two K x r factors and a real dot of those
    2r-float rows. A candidate that may no longer be picked leaves the kept
    scores (drop(): its score is -inf, which every later carry leaves at
    -inf), so pick() is an argmax over them. A trial that needs no more adds
    can leave the batch (retire()); trials and rows (read-only) hold the
    batch order and the watched rows in it, swapped back when the state stops
    watching them. The identities need alpha > 0; zero forcing has no such
    state and is rejected.
    """

    def __init__(self, n_trials: int, n_users: int, alpha: float):
        if not alpha > 0.0:
            raise ValueError(
                f"greedy selection needs regularization alpha > 0, got {alpha}"
            )
        self.alpha = float(alpha)
        self.inverse = np.tile(np.eye(n_users, dtype=complex) / self.alpha,
                               (n_trials, 1, 1))
        self._fresh = True  # G^-1 is still I / alpha
        self.trials = np.arange(n_trials)  # the trial at each place
        # the watched array, its batch's rows read-only, and retire's swaps
        self._watched, self.rows, self._score, self._swaps = None, None, None, []

    def scores(self, rows: np.ndarray, block: int = 1) -> np.ndarray:
        """||a^H G^-1||^2 per candidate, (B, n / block), returned, not kept,
        for candidates given as their conjugated columns a^H stacked as rows
        (B, n, K); a candidate of block consecutive columns scores their sum.

        The matched filter is formed in pieces of about _CHUNK rows, the last
        piece taking the remainder, so only a piece of it sits beside the
        rows; each piece's scores are bit for bit those of the whole set's
        filter. Before any add G^-1 is I / alpha, and scaling the rows by
        1 / alpha gives that product bit for bit. A score out of
        floating-point range raises ScoreRangeError: an infinite one would
        turn into NaN under later carries, and a candidate with a nonzero
        entry scored 0 would hand picks to the lowest index."""
        n_trials, n_rows, n_users = rows.shape
        n_candidates = n_rows // block
        score = np.empty((n_trials, n_candidates))
        # the last piece takes the remainder: a product of one row would go
        # down numpy's vector path, which rounds differently
        piece = max(_CHUNK // block, 1)
        edges = [*range(0, max(n_candidates - piece, 1), piece), n_candidates]
        with np.errstate(over="ignore"):  # checked below, by name
            for start, stop in zip(edges, edges[1:]):
                chunk = rows[:, start * block:stop * block]
                if self._fresh:
                    matched = np.abs(chunk * (1.0 / self.alpha)) ** 2
                else:
                    matched = np.abs(chunk @ self.inverse) ** 2
                score[:, start:stop] = matched.reshape(
                    n_trials, -1, block * n_users).sum(axis=-1)
        if not score.max() < np.inf:
            raise ScoreRangeError(
                f"alpha must be large enough to keep every greedy score "
                f"||a^H G^-1||^2 finite, got {self.alpha!r}")
        if score.min() == 0.0 and (np.abs(rows.reshape(
                score.shape + (-1,))[score == 0.0]) ** 2).any():
            raise ScoreRangeError(
                f"alpha must be small enough to keep the greedy score "
                f"||a^H G^-1||^2 of every nonzero candidate above 0, got "
                f"{self.alpha!r}")
        return score

    def watch(self, rows: np.ndarray) -> None:
        """Keep the scores (`scores`) of the candidates given as rows
        (B, n, K), one column each, up to date from now on. The previous
        set's scores are dropped, and every candidate of the new set may be
        picked. Place i of rows must hold trial trials[i]'s rows."""
        # the previous set goes first, so it is not held through the filter
        self.unwatch()
        self._watched, self.rows = rows, rows.view()
        self.rows.flags.writeable = False
        self._score = self.scores(rows)

    def unwatch(self) -> None:
        """Stop keeping scores: drop the watched set and its scores, so
        later adds update only G^-1. retire()'s swaps of the watched rows are
        undone first, last first, holding one trial's rows aside at a time,
        so the array given to watch() is again bit for bit as given."""
        for place, last in reversed(self._swaps):
            _swap(self._watched, place, last)
        self._watched = self.rows = self._score = None
        self._swaps = []

    @property
    def score(self) -> np.ndarray:
        """||a^H G^-1||^2 per watched candidate, (B, n)."""
        return self._score

    def drop(self, places, candidates) -> None:
        """Take watched candidates out of every later pick until the next
        watch: the kept scores at [places, candidates], indexed as numpy
        indexes the (B, n) scores, become -inf."""
        self._score[places, candidates] = -np.inf

    def pick(self, sets: int | None = None) -> np.ndarray:
        """Index of the best kept score per trial, (B,): the argmax over
        the watched candidates, which holds -inf for dropped ones. With sets,
        the candidates are read as that many equal runs, and the pick is
        each run's best, (B, sets).

        Ties go to the lowest index; a trial, or run, whose best score is
        -inf (every candidate dropped) raises ValueError.
        """
        score = self.score
        if sets is not None:
            score = score.reshape(len(score), sets, -1)
        best = score.argmax(axis=-1)
        flat = score.reshape(-1, score.shape[-1])
        if flat[np.arange(len(flat)), best.reshape(-1)].min() == -np.inf:
            raise ValueError("candidate set is empty")
        return best

    def add(self, rows: np.ndarray) -> None:
        """Append r columns A, given as the rows A^H (B, r, K), as r rank-1
        updates, none of which solves: column a_i takes u_i = G^-1 a_i and
        s_i = 1 / (1 + Re a_i^H u_i) from the G^-1 the columns before it
        left, and G^-1 -= v_i u_i^H with v_i = s_i u_i. Together
        G^-1 -= V U^H, with U = [u_1 ... u_r] and V = U diag(s).

        A watched row c scores ||c G^-1||^2, and the add changes its score
        by Re<c P, c V> with P = V U^H U - 2 G0^-1 U, formed from U, V and
        the G0^-1 before the add. A finite change leaves a dropped score at
        -inf. All-zero rows leave a trial's state, scores included,
        unchanged bit for bit."""
        before, us, vs = self.inverse, [], []
        for i in range(rows.shape[-2]):
            row = rows[:, i, None]  # a_i^H, (B, 1, K)
            u = self.inverse @ _hermitian(row)
            v = u * (1.0 / (1.0 + (row @ u).real))  # s_i u_i
            self.inverse = self.inverse - v * _hermitian(u)
            us.append(u)
            vs.append(v)
        if self._score is not None:
            us, vs = np.concatenate(us, axis=-1), np.concatenate(vs, axis=-1)
            p = vs @ (_hermitian(us) @ us) - 2.0 * (before @ us)
            # each row's products c P and c V as (B, n, 2r) floats: the real
            # dot of the two, summed column by column in order, is
            # Re<c P, c V>; at rank 1 the products are matrix-vector ones
            cp = (self.rows @ p).view(float)
            cp *= (self.rows @ vs).view(float)
            change = np.add(cp[..., 0], cp[..., 1])
            for column in range(2, cp.shape[-1]):
                change += cp[..., column]
            self._score += change
        self._fresh = False

    def retire(self, places) -> None:
        """Drop the trials at the given places of the batch. From the back,
        each swaps places with the batch's last trial in trials, in G^-1, in
        the kept scores and in the watched rows, and the batch then ends
        before it. The watched rows swap in place, so the array given to
        watch() holds the retired trials' rows behind the batch's until
        unwatch() swaps them back; only one trial's rows are held aside."""
        for place in sorted(places, reverse=True):
            last = len(self.trials) - 1
            for array in (self.trials, self.inverse, self._score, self._watched):
                if array is not None:
                    _swap(array, place, last)
            self.trials, self.inverse = self.trials[:last], self.inverse[:last]
            if self.rows is not None:
                self._swaps.append((place, last))
                self.rows = self.rows[:last]
            if self._score is not None:
                self._score = self._score[:last]

    def objective(self) -> np.ndarray:
        """alpha tr G^-1 per trial, the RZF objective of the columns so far."""
        return self.alpha * np.trace(self.inverse, axis1=-2, axis2=-1).real


def _swap(array: np.ndarray, i: int, j: int) -> None:
    """Swap array[i] and array[j] in place, holding one of them aside."""
    held = array[i].copy()
    array[i] = array[j]
    array[j] = held

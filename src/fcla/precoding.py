"""Regularized zero-forcing precoder family, power normalization, link rates,
and the inverse-Gram state that the greedy placement solvers share."""

from __future__ import annotations

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """The unregularized system is rank deficient."""


# reciprocal-condition floor below which an alpha=0 solve is rejected
_RCOND_FLOOR = 1e-12
# rows per piece of the matched filter that GreedyState.watch forms, rounded
# down to whole candidates
_CHUNK = 16


def rzf(H: np.ndarray, alpha: float, gram: str = "auto") -> np.ndarray:
    """Regularized zero-forcing precoder H^H (H H^H + alpha I)^-1.

    The same matrix equals (H^H H + alpha I)^-1 H^H, so the solve runs on
    whichever Gram matrix is smaller unless a specific form is forced via
    gram="k" (users) or gram="n" (antennas). alpha=0 requires a full-rank
    system and raises SingularMatrixError otherwise. H (..., K, N) may stack
    matrices along leading axes; each (..., N, K) precoder then equals its
    matrix's own.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2:
        raise ValueError("H must be a matrix or a stack of matrices")
    if alpha < 0.0:
        raise ValueError(f"regularization must be >= 0, got {alpha}")
    n_users, n_ant = H.shape[-2:]
    if gram == "auto":
        gram = "k" if n_users <= n_ant else "n"
    H_h = _hermitian(H)
    if gram == "k":
        G = H @ H_h + alpha * np.eye(n_users)
        _require_invertible(G, alpha)
        # (G^-1 H)^H = H^H G^-1 because G is Hermitian
        return _hermitian(np.linalg.solve(G, H))
    if gram == "n":
        G = H_h @ H + alpha * np.eye(n_ant)
        _require_invertible(G, alpha)
        return np.linalg.solve(G, H_h)
    raise ValueError(f"gram must be 'auto', 'k' or 'n', got {gram!r}")


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
    leading axes.
    """
    F = np.asarray(F, dtype=complex)
    norms = np.linalg.norm(F, axis=-2)
    zero = norms == 0.0
    target = np.sqrt(power / F.shape[-1])
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


def rzf_objective(H: np.ndarray, F: np.ndarray,
                  alpha: float) -> float | np.ndarray:
    """Regularized interference objective ||I - H F||_F^2 + alpha ||F||_F^2.

    H (..., K, N) and F (..., N, K) may stack matrices along leading axes;
    the objective is then one per matrix, and a float for a single one."""
    H = np.asarray(H, dtype=complex)
    F = np.asarray(F, dtype=complex)
    residual = np.eye(H.shape[-2]) - H @ F
    objective = (np.linalg.norm(residual, axis=(-2, -1)) ** 2
                 + alpha * np.linalg.norm(F, axis=(-2, -1)) ** 2)
    return float(objective) if objective.ndim == 0 else objective


class GreedyState:
    """Greedy atom selection under RZF precoding, for a stack of trials.

    Per trial it holds the inverse Gram matrix G^-1 = (H H^H + alpha I)^-1 of
    the columns H picked so far (none at the start, so G^-1 = I / alpha). With
    F = rzf(H, alpha) three identities hold:

    - the residual I - H F equals alpha G^-1;
    - the objective ||I - H F||_F^2 + alpha ||F||_F^2 equals alpha tr G^-1;
    - a candidate column a scores ||a^H G^-1||^2, its matched-filter response
      to the residual up to the constant factor alpha^2.

    Adding r columns is a rank-r Woodbury update of G^-1, so a greedy step
    costs two small matrix products instead of a refit (Batch-OMP, Rubinstein,
    Zibulevsky & Elad 2008; the matrix-residual score of simultaneous OMP,
    Tropp, Gilbert & Strauss 2006). The state keeps the scores of one watched
    candidate set: watch() forms their full matched filter once, and each
    add() is carried into them by the same update, as one product of the
    candidates with K x 2r factors, when the scores are next read. The
    identities need alpha > 0; zero forcing has no such state and is
    rejected.
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
        self._rows = None
        self._score = None
        self._pending: list[tuple] = []  # (G^-1 before, U, Z) per add

    def watch(self, rows: np.ndarray, block: int = 1) -> None:
        """Score the candidates given as their conjugated columns a^H stacked
        as rows (B, n, K), and keep their scores up to date from now on. A
        candidate of block consecutive columns scores the sum of their
        scores. Updates still pending for the previous set are dropped.

        The matched filter is formed in pieces of about _CHUNK rows, the last
        piece taking the remainder, so only a piece of it sits beside the
        rows; each piece's scores are bit for bit those of the whole set's
        filter. Before any add G^-1 is I / alpha, and scaling the rows by
        1 / alpha gives that product bit for bit."""
        # the previous set goes first, so it is not held through the filter
        self._rows, self._score, self._pending = rows, None, []
        n_trials, n_rows, n_users = rows.shape
        n_candidates = n_rows // block
        score = np.empty((n_trials, n_candidates))
        # the last piece takes the remainder: a product of one row would go
        # down numpy's vector path, which rounds differently
        piece = max(_CHUNK // block, 1)
        edges = [*range(0, max(n_candidates - piece, 1), piece), n_candidates]
        for start, stop in zip(edges, edges[1:]):
            chunk = rows[:, start * block:stop * block]
            if self._fresh:
                matched = np.abs(chunk * (1.0 / self.alpha)) ** 2
            else:
                matched = np.abs(chunk @ self.inverse) ** 2
            score[:, start:stop] = matched.reshape(
                n_trials, -1, block * n_users).sum(axis=-1)
        self._score = score

    def unwatch(self) -> None:
        """Stop keeping scores: drop the watched set and its pending
        updates."""
        self._rows, self._score, self._pending = None, None, []

    @property
    def score(self) -> np.ndarray:
        """||a^H G^-1||^2 per watched candidate, (B, n / block)."""
        for inverse, update, solved in self._pending:
            # V = Z^H and P = V U^H U - 2 G^-1 U, with the G^-1 before the add
            v = np.conj(np.swapaxes(solved, -1, -2))
            p = (v @ (np.conj(np.swapaxes(update, -1, -2)) @ update)
                 - 2.0 * (inverse @ update))
            # each row's products with [P, V] as (B, n, 4r) floats: the real
            # dot of the P half with the V half is Re<c P, c V>
            product = (self._rows @ np.concatenate([p, v], axis=-1)).view(float)
            half = product.shape[-1] // 2
            change = np.einsum("...i,...i->...", product[..., :half],
                               product[..., half:])
            self._score += change.reshape(self._score.shape + (-1,)).sum(axis=-1)
        self._pending = []
        return self._score

    def pick(self, live: np.ndarray) -> np.ndarray:
        """Index of the best live watched candidate along live's last axis,
        the candidates taken in order.

        Ties go to the lowest index; a trial without a live candidate raises
        ValueError.
        """
        live = np.asarray(live, dtype=bool)
        if not live.any(axis=-1).all():
            raise ValueError("candidate set is empty")
        scores = self.score.reshape(live.shape)
        return np.where(live, scores, -np.inf).argmax(axis=-1)

    def add(self, rows: np.ndarray) -> None:
        """Append r columns A, given as the rows A^H (B, r, K), by a rank-r
        Woodbury update: G^-1 -= U Z with U = G^-1 A and
        Z = (I + A^H U)^-1 U^H.

        A watched row c scores ||c G^-1||^2, which the update changes by
        Re<c P, c V> with V = Z^H and P = V U^H U - 2 G^-1 U, formed from
        U, Z and the G^-1 before the add when the scores are next read (a new
        watch() drops them). All-zero rows leave a trial's state, scores
        included, unchanged bit for bit."""
        update = self.inverse @ np.conj(np.swapaxes(rows, -1, -2))
        inner = np.eye(rows.shape[-2]) + rows @ update
        update_h = np.conj(np.swapaxes(update, -1, -2))
        solved = np.linalg.solve(inner, update_h)
        if self._rows is not None:
            self._pending.append((self.inverse, update, solved))
        self.inverse = self.inverse - update @ solved
        self._fresh = False

    def objective(self) -> np.ndarray:
        """alpha tr G^-1 per trial, the RZF objective of the columns so far."""
        return self.alpha * np.trace(self.inverse, axis1=-2, axis2=-1).real

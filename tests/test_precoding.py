import numpy as np
import pytest

from fcla.channel import build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.pattern import PatternSpec
from fcla.precoding import (_CHUNK, GreedyState, SingularMatrixError,
                            normalize_columns, rzf, rzf_objective, sinr)
from greedy_oracle import direct_scores


def solve_gauss(A, B):
    """Partial-pivot Gaussian elimination, written independently of numpy.linalg."""
    A = np.array(A, dtype=complex)
    B = np.array(B, dtype=complex)
    n = A.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(A[col:, col]))
        if abs(A[pivot, col]) < 1e-14 * max(1.0, np.abs(A).max()):
            raise ZeroDivisionError("pivot collapsed")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            B[[col, pivot]] = B[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            B[row] -= factor * B[col]
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - A[row, row + 1:] @ X[row + 1:]) / A[row, row]
    return X


def rzf_oracle(H, alpha):
    K = H.shape[0]
    X = solve_gauss(H @ H.conj().T + alpha * np.eye(K), H)
    return X.conj().T


def random_channel(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRzf:
    def test_identity_channel(self):
        assert np.allclose(rzf(np.eye(3), 0.0), np.eye(3))
        assert np.allclose(rzf(np.eye(3), 1.0), 0.5 * np.eye(3))

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            H = random_channel(rng, 3, 5)
            F = rzf(H, 0.7)
            assert np.max(np.abs(F - rzf_oracle(H, 0.7))) < 1e-10

    def test_gram_forms_agree(self):
        # the users' Gram form on wide and square channels, the antennas' on
        # tall ones, each against the oracle's users' form
        rng = np.random.default_rng(1)
        for k, n in [(3, 5), (5, 3), (4, 4), (2, 9), (9, 2)]:
            H = random_channel(rng, k, n)
            assert np.max(np.abs(rzf(H, 0.3) - rzf_oracle(H, 0.3))) < 1e-10

    def test_zero_alpha_inverts(self):
        rng = np.random.default_rng(2)
        H = random_channel(rng, 3, 6)
        F = rzf(H, 0.0)
        assert np.allclose(H @ F, np.eye(3), atol=1e-10)

    def test_zero_alpha_on_a_tall_channel(self):
        # more users than antennas: H H^H is singular, and the antennas'
        # Gram form gives the left inverse (H^H H)^-1 H^H
        rng = np.random.default_rng(10)
        H = random_channel(rng, 6, 3)
        assert np.allclose(rzf(H, 0.0) @ H, np.eye(3), atol=1e-10)

    def test_rank_deficient_raises(self):
        H = np.ones((3, 4), dtype=complex)  # rank one
        with pytest.raises(SingularMatrixError):
            rzf(H, 0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            rzf(np.eye(2), -0.1)


class TestRzfSpecial:
    """Named members of the family: matched filter (alpha -> inf), MMSE
    (alpha = noise power) and zero forcing (alpha = 0)."""

    def test_matched_filter(self):
        # rzf(2I, a) = 2I / (4 + a), so a * rzf tends to H^H
        H = np.eye(3) * 2.0
        assert np.allclose(1e12 * rzf(H, 1e12), H.conj().T)

    def test_mmse_identity(self):
        assert np.allclose(rzf(np.eye(3), 1.0), 0.5 * np.eye(3))

    def test_zf_is_zero_alpha(self):
        # the regularized precoder is continuous at alpha = 0
        rng = np.random.default_rng(3)
        H = random_channel(rng, 3, 5)
        assert np.allclose(rzf(H, 1e-10), rzf(H, 0.0), atol=1e-8)

    def test_large_alpha_approaches_matched_filter(self):
        rng = np.random.default_rng(4)
        H = random_channel(rng, 3, 6)
        F = normalize_columns(rzf(H, 1e6), 3.0)
        F_mrt = normalize_columns(H.conj().T, 3.0)
        assert np.max(np.abs(F - F_mrt)) < 1e-4

    def test_matched_filter_direction_limit(self):
        rng = np.random.default_rng(5)
        H = random_channel(rng, 4, 7)
        F = rzf(H, 1e8)
        F_mrt = H.conj().T
        cosine = np.abs(np.sum(F.conj() * F_mrt, axis=0)) / (
            np.linalg.norm(F, axis=0) * np.linalg.norm(F_mrt, axis=0))
        assert np.all(cosine > 1.0 - 1e-6)

    def test_unknown_mode(self):
        # the Gram form follows the shape; no mode can be forced
        with pytest.raises(TypeError):
            rzf(np.eye(2), 1.0, gram="k")


class TestNormalizeColumns:
    def test_scales_to_equal_share(self):
        F = normalize_columns(2.0 * np.eye(3, dtype=complex), 3.0)
        assert np.allclose(F, np.eye(3))

    def test_total_power_exact(self):
        rng = np.random.default_rng(6)
        F = normalize_columns(random_channel(rng, 5, 4), 2.5)
        assert abs(np.linalg.norm(F, "fro") ** 2 - 2.5) < 1e-12

    def test_column_norms(self):
        rng = np.random.default_rng(7)
        F = normalize_columns(random_channel(rng, 6, 2), 4.0)
        assert np.allclose(np.linalg.norm(F, axis=0), np.sqrt(2.0))

    def test_zero_column_tolerated_when_allowed(self):
        F = np.zeros((3, 2), dtype=complex)
        F[:, 0] = 1.0
        out = normalize_columns(F, 1.0)
        assert np.all(out[:, 1] == 0.0)
        assert np.isclose(np.linalg.norm(out[:, 0]), np.sqrt(0.5))

    @pytest.mark.parametrize("exponent", [-1000, -700, -520, 520, 1000])
    def test_columns_out_of_range_normalize_as_in_range(self, exponent):
        # columns whose squares underflow (to 0 below 2^-537) or overflow
        # (above 2^512), scaled exactly by a power of two, normalize as the
        # same columns at unit scale, bit for bit; the zero column stays
        # zero, and the column at unit scale beside them is unchanged
        rng = np.random.default_rng(8)
        F = random_channel(rng, 2, 5, 4)
        F[:, :, 3] = 0.0
        want = normalize_columns(F, 2.0)
        scaled = F.copy()
        scaled[:, :, 1:3] *= 2.0 ** exponent
        assert np.array_equal(normalize_columns(scaled, 2.0), want)


class TestStacks:
    """A (B, K, N) stack gives each matrix exactly its own result."""

    @pytest.mark.parametrize("shape", [(4, 3, 5), (4, 5, 3)],
                             ids=["k-below-n", "k-above-n"])
    def test_stack_equals_per_matrix_calls(self, shape):
        rng = np.random.default_rng(8)
        H = random_channel(rng, *shape)
        F = rzf(H, 0.4)
        F_norm = normalize_columns(F, 2.0)
        powers = 0.5 + rng.random(shape[0])  # a budget per matrix
        F_each = normalize_columns(F, powers)
        objective = rzf_objective(H, F, 0.4)
        assert F.shape == (shape[0], shape[2], shape[1])
        for b in range(shape[0]):
            F_b = rzf(H[b], 0.4)
            assert np.array_equal(F[b], F_b)
            assert np.max(np.abs(F_b - rzf_oracle(H[b], 0.4))) < 1e-10
            assert np.array_equal(F_norm[b], normalize_columns(F_b, 2.0))
            assert np.array_equal(F_each[b], normalize_columns(F_b, powers[b]))
            assert objective[b] == rzf_objective(H[b], F_b, 0.4)

    def test_one_singular_matrix_fails_the_stack(self):
        rng = np.random.default_rng(9)
        H = random_channel(rng, 3, 3, 4)
        rzf(H[[0, 2]], 0.0)
        H[1] = 1.0  # rank one
        with pytest.raises(SingularMatrixError):
            rzf(H, 0.0)


def sinr_oracle(H, F, sigma2):
    """Scalar-loop link quality, term by term."""
    k = H.shape[0]
    out = []
    for i in range(k):
        signal = abs(sum(H[i, a] * F[a, i] for a in range(H.shape[1]))) ** 2
        interference = 0.0
        for j in range(k):
            if j != i:
                interference += abs(sum(H[i, a] * F[a, j]
                                        for a in range(H.shape[1]))) ** 2
        out.append(signal / (interference + sigma2))
    return np.array(out)


class TestSinr:
    def test_single_user_unit_vectors(self):
        H = np.array([[1.0, 0.0]])
        F = np.array([[1.0], [0.0]])
        assert np.allclose(sinr(H, F, 1.0), [1.0])

    def test_orthonormal_zero_interference(self):
        H = np.eye(2, dtype=complex)
        assert np.allclose(sinr(H, H.conj().T, 1.0), [1.0, 1.0])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        H = random_channel(rng, 3, 5)
        F = random_channel(rng, 5, 3)
        assert np.allclose(sinr(H, F, 0.7),
                           np.log2(1.0 + sinr_oracle(H, F, 0.7)), atol=1e-12)
        stack = [(random_channel(rng, 3, 5), random_channel(rng, 5, 3))
                 for _ in range(3)]
        stacked = sinr(np.stack([h for h, _ in stack]),
                       np.stack([f for _, f in stack]), 0.7)
        assert stacked.shape == (3, 3)
        for b, (h, f) in enumerate(stack):
            assert np.allclose(stacked[b],
                               np.log2(1.0 + sinr_oracle(h, f, 0.7)),
                               atol=1e-12)
            assert (stacked[b] == sinr(h, f, 0.7)).all()

    def test_rejects_mismatched_stack(self):
        H = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            sinr(H, np.zeros((3, 4, 3)), 1.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            sinr(H, np.zeros((2, 3, 3)), 1.0)

    def test_user_permutation_invariance(self):
        rng = np.random.default_rng(9)
        H = random_channel(rng, 4, 6)
        F = random_channel(rng, 6, 4)
        perm = [2, 0, 3, 1]
        base = sinr(H, F, 1.0)
        shuffled = sinr(H[perm], F[:, perm], 1.0)
        assert np.allclose(base[perm], shuffled)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            sinr(np.eye(2), np.eye(2), 0.0)


class TestObjective:
    def test_zero_precoder(self):
        H = np.zeros((3, 4))
        assert np.isclose(rzf_objective(H, np.zeros((4, 3)), 1.0), 3.0)

    def test_perfect_inversion(self):
        assert rzf_objective(np.eye(2), np.eye(2), 0.0) == 0.0

    def test_closed_form_is_global_minimum(self):
        rng = np.random.default_rng(10)
        H = random_channel(rng, 3, 5)
        alpha = 0.9
        F_star = rzf(H, alpha)
        best = rzf_objective(H, F_star, alpha)
        for _ in range(100):
            noise = (rng.standard_normal(F_star.shape)
                     + 1j * rng.standard_normal(F_star.shape))
            assert rzf_objective(H, F_star + 0.1 * noise, alpha) >= best

    def test_gradient_vanishes_at_solution(self):
        # central differences on the real/imaginary parts; the objective is
        # quadratic, so the finite-difference gradient is exact up to rounding
        rng = np.random.default_rng(11)
        H = random_channel(rng, 2, 4)
        alpha = 0.5
        F_star = rzf(H, alpha)
        h = 1e-3
        grad = []
        for idx in np.ndindex(F_star.shape):
            for delta in (h, 1j * h):
                up, down = F_star.copy(), F_star.copy()
                up[idx] += delta
                down[idx] -= delta
                grad.append((rzf_objective(H, up, alpha)
                             - rzf_objective(H, down, alpha)) / (2.0 * h))
        assert np.linalg.norm(grad) < 1e-8


def rows_of(columns):
    """Conjugated columns stacked as rows, with a leading trial axis."""
    return np.conj(columns.T)[None]


class TestGreedyState:
    """The inverse-Gram state against a refit with rzf after every update,
    and its kept scores against direct rescoring."""

    def test_matches_refit_over_random_updates(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            k = int(rng.integers(1, 9))
            alpha = float(rng.uniform(0.05, 3.0))
            state = GreedyState(1, k, alpha)
            H = np.zeros((k, 0), dtype=complex)
            candidates = random_channel(rng, k, 7)
            state.watch(rows_of(candidates))
            for _ in range(int(rng.integers(1, 5))):
                block = random_channel(rng, k, int(rng.integers(1, 4)))
                state.add(rows_of(block))
                H = np.hstack([H, block])
                F = rzf(H, alpha)
                residual = np.eye(k) - H @ F
                assert np.max(np.abs(alpha * state.inverse[0] - residual)) < 1e-12
                objective = rzf_objective(H, F, alpha)
                assert abs(state.objective()[0] - objective) < 1e-12 * objective
                # the kept matched filter against the residual, up to alpha^2
                want = np.sum(np.abs(candidates.conj().T @ residual) ** 2, axis=1)
                got = alpha ** 2 * state.score[0]
                assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, want.max())

    def test_fresh_state_is_the_empty_selection(self):
        state = GreedyState(2, 3, 0.5)
        assert np.array_equal(state.inverse, np.stack([np.eye(3) / 0.5] * 2))
        # nothing picked: the residual is I, so the objective is ||I||^2 = K
        assert np.allclose(state.objective(), [3.0, 3.0])

    @pytest.mark.parametrize("block", [1, 2])
    def test_watch_scores_by_the_direct_formula(self, block):
        # scores() of blocks of columns, and the scores a watch of single
        # columns keeps, are the direct formula's
        rng = np.random.default_rng(16)
        state = GreedyState(2, 4, 0.7)
        rows = np.conj(np.swapaxes(random_channel(rng, 8, 6).reshape(2, 4, 6),
                                   1, 2))
        self.check_direct(state, rows, block)
        # after adds they score afresh too, from the G^-1 the adds left
        state.add(rows[:, :2])
        others = np.conj(np.swapaxes(
            random_channel(rng, 8, 4).reshape(2, 4, 4), 1, 2))
        self.check_direct(state, others, block)

    @staticmethod
    def check_direct(state, rows, block):
        assert np.array_equal(state.scores(rows, block),
                              direct_scores(rows, state.inverse, block))
        state.watch(rows)
        assert np.array_equal(state.score, direct_scores(rows, state.inverse))

    @pytest.mark.parametrize("block", [1, 4])
    @pytest.mark.parametrize("n_candidates", [_CHUNK - 1, _CHUNK + 1,
                                              2 * _CHUNK + 5, 3 * _CHUNK])
    def test_watch_pieces_score_as_the_whole(self, block, n_candidates):
        # the matched filter is formed in pieces of about _CHUNK rows; at
        # every split the scores equal the whole set's, fresh and after adds
        rng = np.random.default_rng(n_candidates)
        rows = random_channel(rng, 3, n_candidates * block, 16)
        state = GreedyState(3, 16, 0.8)
        self.check_direct(state, rows, block)
        state.add(random_channel(rng, 3, 2, 16))
        self.check_direct(state, rows, block)

    def test_fresh_tie_rounds_as_the_direct_formula(self):
        # two rows of equal magnitudes, the second phase-shifted per user:
        # an exact tie that rounding breaks. The direct formula puts row 1
        # one ulp ahead; a real-view dot of the same matched filter ties
        # them, which would hand the pick to row 0.
        rng = np.random.default_rng(0)
        row = random_channel(rng, 4)
        phase = np.exp(2j * np.pi * rng.random(4))
        rows = np.stack([row, row * phase])[None]
        state = GreedyState(1, 4, 0.8)
        state.watch(rows)
        want = direct_scores(rows, state.inverse)
        assert want[0, 1] > want[0, 0]
        assert np.array_equal(state.score, want)
        assert state.pick()[0] == 1

    # rank 1 as fcla-j adds an atom, 4 as the angle phase adds an element
    # to each of 4 rings
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_batch_equals_batches_of_one(self, rank):
        rng = np.random.default_rng(11)
        n_trials, k = 5, 6
        blocks = [random_channel(rng, n_trials * k, rank)
                  .reshape(n_trials, k, rank) for _ in range(4)]
        candidates = random_channel(rng, n_trials * k, 9).reshape(n_trials, k, 9)
        rows = np.conj(np.swapaxes(candidates, 1, 2))
        live = rng.random((n_trials, 9)) < 0.6
        live[:, 0] = True
        batch = GreedyState(n_trials, k, 0.8)
        alone = [GreedyState(1, k, 0.8) for _ in range(n_trials)]
        batch.watch(rows)
        batch.drop(*np.nonzero(~live))
        for t, state in enumerate(alone):
            state.watch(rows[t:t + 1])
            state.drop(0, np.flatnonzero(~live[t]))
        for block in blocks:
            block_rows = np.conj(np.swapaxes(block, 1, 2))
            batch.add(block_rows)
            picks = batch.pick()
            for t, state in enumerate(alone):
                state.add(block_rows[t:t + 1])
                assert picks[t] == state.pick()[0]
        for t, state in enumerate(alone):
            assert np.array_equal(batch.inverse[t], state.inverse[0])
            assert np.array_equal(batch.score[t], state.score[0])
            assert batch.objective()[t] == state.objective()[0]

    def test_retired_trials_leave_the_others_as_they_were(self):
        # the trials that finish at each step: one at a time; two at one
        # step, their places given in either order; the batch's last place
        # among them. The state stops watching by unwatch() or by a watch()
        # of another set
        for finishing in ([(1,), (4,), ()], [(1, 3), (4,), ()],
                          [(3, 1), (4,), ()], [(4, 0), (), (2,)]):
            for stop in ("unwatch", "watch"):
                self.check_retirement(finishing, stop)

    @staticmethod
    def check_retirement(finishing, stop):
        # the batch's last trials take the retired ones' places, the watched
        # rows swapping in place with the state, until the state stops
        # watching them and swaps them back
        rng = np.random.default_rng(13)
        n_trials, k = 5, 6
        rows = random_channel(rng, n_trials, 9, k)
        blocks = random_channel(rng, 3, n_trials, 1, k)
        original = rows.copy()
        batch = GreedyState(n_trials, k, 0.8)
        alone = [GreedyState(1, k, 0.8) for _ in range(n_trials)]
        batch.watch(rows)
        for t, state in enumerate(alone):
            state.watch(original[t:t + 1])
        assert batch.trials.tolist() == list(range(n_trials))
        for block, trials in zip(blocks, finishing):
            order = batch.trials.tolist()
            batch.add(block[order])
            for t in order:
                alone[t].add(block[t:t + 1])
            batch.retire([order.index(t) for t in trials])
            assert sorted(batch.trials) == sorted(set(order) - set(trials))
            running = len(batch.trials)
            assert np.array_equal(batch.rows, original[batch.trials])
            assert np.shares_memory(batch.rows, rows[:running])
            for place, t in enumerate(batch.trials):
                assert np.array_equal(batch.inverse[place], alone[t].inverse[0])
                assert np.array_equal(batch.score[place], alone[t].score[0])
        with pytest.raises(ValueError, match="read-only"):
            batch.rows[0] = 0.0
        if stop == "unwatch":
            batch.unwatch()
            assert batch.rows is None and batch.score is None
        else:
            batch.watch(original[batch.trials])
        assert rows.tobytes() == original.tobytes(), (finishing, stop)

    def test_zero_rows_leave_a_trial_unchanged(self):
        rng = np.random.default_rng(12)
        state = GreedyState(2, 4, 1.0)
        state.watch(rows_of(random_channel(rng, 4, 5)).repeat(2, axis=0))
        state.add(rows_of(random_channel(rng, 4, 2)).repeat(2, axis=0))
        before, scores = state.inverse.copy(), state.score.copy()
        rows = np.conj(np.swapaxes(random_channel(rng, 8, 1).reshape(2, 4, 1),
                                   1, 2))
        rows[1] = 0.0
        state.add(rows)
        assert np.array_equal(state.inverse[1], before[1])
        assert np.array_equal(state.score[1], scores[1])
        assert not np.array_equal(state.inverse[0], before[0])
        assert not np.array_equal(state.score[0], scores[0])

    @pytest.mark.parametrize("rank", [1, 4])
    def test_kept_scores_do_not_drift(self, rank):
        # the reference shape's largest grid: 16 users, 32 x 32 columns,
        # alpha of the mmse rule at unit noise, 60 adds of the best columns
        config = FclaConfig(4, 4, 32, 32, d_min=0.05, wavelength=0.1,
                            pattern=PatternSpec.omni())
        rows = build_joint_dictionary(
            draw_paths(16, 4, [np.random.SeedSequence([0])]), config).rows
        state = GreedyState(1, 16, 1.0)
        state.watch(rows)
        live = np.ones((1, config.g_h * config.g_v), dtype=bool)
        for _ in range(60):
            best = np.argsort(np.where(live, state.score, -np.inf),
                              axis=-1)[0, -rank:]
            live[0, best] = False
            state.add(rows[:, best])
            want = direct_scores(rows, state.inverse)
            assert np.all(np.abs(state.score - want) <= 1e-10 * want)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_rejects_zero_forcing(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            GreedyState(1, 3, alpha)


class TestGreedyPick:
    """Candidate choice: the largest score among the candidates not dropped,
    the lowest index on ties."""

    def test_fresh_state_picks_largest_column(self):
        rng = np.random.default_rng(13)
        columns = random_channel(rng, 4, 10)
        state = GreedyState(1, 4, 1.0)
        state.watch(rows_of(columns))
        best = state.pick()
        norms = np.linalg.norm(columns, axis=0) ** 2
        assert best[0] == int(np.argmax(norms))

    def test_single_live_candidate(self):
        rng = np.random.default_rng(14)
        state = GreedyState(1, 4, 1.0)
        state.watch(rows_of(random_channel(rng, 4, 8)))
        state.drop(0, [0, 1, 2, 3, 4, 6, 7])
        assert state.pick()[0] == 5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        alpha = 0.6
        picked = random_channel(rng, 4, 2)
        residual = np.eye(4) - picked @ rzf(picked, alpha)
        columns = random_channel(rng, 4, 12)
        candidates = [1, 2, 5, 7, 8, 11]
        scores = {g: float(np.sum(np.abs(columns[:, g].conj() @ residual) ** 2))
                  for g in candidates}
        want = max(sorted(scores), key=lambda g: scores[g])
        state = GreedyState(1, 4, alpha)
        state.watch(rows_of(columns))  # scored before the add, kept after it
        # dropped before the add, which leaves them out
        state.drop(0, np.setdiff1d(np.arange(12), candidates))
        state.add(rows_of(picked))
        assert state.pick()[0] == want

    def test_ties_go_to_lowest_index(self):
        column = np.array([1.0, 2.0j, -1.0])
        columns = np.stack([0.5 * column, column, column, column], axis=1)
        state = GreedyState(1, 3, 1.0)
        state.watch(rows_of(columns))
        state.drop(0, 1)
        assert state.pick()[0] == 2

    def test_blocks_score_their_summed_columns(self):
        # the height phase's block scores, against the kept scores of their
        # columns, fresh and after an add
        rng = np.random.default_rng(15)
        columns = random_channel(rng, 3, 6)  # three blocks of two columns
        per_column = GreedyState(1, 3, 0.9)
        per_column.watch(rows_of(columns))
        for added in (None, random_channel(rng, 3, 1)):
            if added is not None:
                per_column.add(rows_of(added))
            blocks = per_column.scores(rows_of(columns), 2)[0]
            summed = per_column.score[0].reshape(3, 2).sum(axis=1)
            assert np.allclose(blocks, summed, rtol=1e-14, atol=0.0)

    def test_empty_candidates(self):
        state = GreedyState(2, 3, 1.0)
        state.watch(np.ones((2, 4, 3), dtype=complex))
        state.drop(1, np.arange(4))
        with pytest.raises(ValueError, match="empty"):
            state.pick()

    def test_sets_pick_in_each_run(self):
        # the candidates read as 3 runs of 2, as the angle phase reads its
        # rings' columns; a run with every candidate dropped is empty
        rng = np.random.default_rng(18)
        rows = random_channel(rng, 2, 6, 4)
        state = GreedyState(2, 4, 1.0)
        state.watch(rows)
        state.drop([[0], [1]], [[1], [4]])
        want = direct_scores(rows, state.inverse)
        want[0, 1] = want[1, 4] = -np.inf
        assert np.array_equal(state.pick(3),
                              want.reshape(2, 3, 2).argmax(axis=-1))
        state.drop(0, [2, 3])
        want[0, 2:4] = -np.inf
        with pytest.raises(ValueError, match="empty"):
            state.pick(3)
        assert state.pick().tolist() == [int(np.argmax(want[0])),
                                         int(np.argmax(want[1]))]

    def test_dropped_candidates_stay_out(self):
        # dropped scores stay -inf through adds and retirements, and every
        # other kept score is bit for bit that of a state that dropped none
        rng = np.random.default_rng(17)
        n_trials, k = 4, 5
        rows = random_channel(rng, n_trials, 10, k)
        blocks = random_channel(rng, 3, n_trials, 2, k)
        dropped = GreedyState(n_trials, k, 0.8)
        kept = GreedyState(n_trials, k, 0.8)
        dropped.watch(rows.copy())
        kept.watch(rows.copy())
        out = np.zeros((n_trials, 10), dtype=bool)  # by trial
        places, candidates = [[0], [2], [3]], [[1, 6], [4, 9], [0, 3]]
        dropped.drop(places, candidates)
        out[places, candidates] = True
        for block, finishing in zip(blocks, ([], [0], [1])):
            order = dropped.trials.tolist()
            dropped.add(block[order])
            kept.add(block[order])
            dropped.retire(finishing)
            kept.retire(finishing)
            assert dropped.trials.tolist() == kept.trials.tolist()
            mask = out[dropped.trials]
            assert np.all(dropped.score[mask] == -np.inf)
            assert np.array_equal(dropped.score[~mask], kept.score[~mask])
            assert np.array_equal(dropped.pick(),
                                  np.where(mask, -np.inf, kept.score)
                                  .argmax(axis=-1))

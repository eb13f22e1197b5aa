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
        rng = np.random.default_rng(1)
        for k, n in [(3, 5), (5, 3), (4, 4), (2, 9)]:
            H = random_channel(rng, k, n)
            Fk = rzf(H, 0.3, gram="k")
            Fn = rzf(H, 0.3, gram="n")
            assert np.max(np.abs(Fk - Fn)) < 1e-10
            assert np.max(np.abs(rzf(H, 0.3) - Fk)) < 1e-10

    def test_zero_alpha_inverts(self):
        rng = np.random.default_rng(2)
        H = random_channel(rng, 3, 6)
        F = rzf(H, 0.0)
        assert np.allclose(H @ F, np.eye(3), atol=1e-10)

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
        with pytest.raises(ValueError):
            rzf(np.eye(2), 1.0, gram="dirty")


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


class TestStacks:
    """A (B, K, N) stack gives each matrix exactly its own result."""

    @pytest.mark.parametrize("shape", [(4, 3, 5), (4, 5, 3)],
                             ids=["k-below-n", "k-above-n"])
    @pytest.mark.parametrize("gram", ["auto", "k", "n"])
    def test_stack_equals_per_matrix_calls(self, shape, gram):
        rng = np.random.default_rng(8)
        H = random_channel(rng, *shape)
        F = rzf(H, 0.4, gram=gram)
        F_norm = normalize_columns(F, 2.0)
        objective = rzf_objective(H, F, 0.4)
        assert F.shape == (shape[0], shape[2], shape[1])
        for b in range(shape[0]):
            F_b = rzf(H[b], 0.4, gram=gram)
            assert np.array_equal(F[b], F_b)
            assert np.array_equal(F_norm[b], normalize_columns(F_b, 2.0))
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
        rng = np.random.default_rng(16)
        state = GreedyState(2, 4, 0.7)
        rows = np.conj(np.swapaxes(random_channel(rng, 8, 6).reshape(2, 4, 6),
                                   1, 2))
        state.watch(rows, block)
        assert np.array_equal(state.score, direct_scores(rows, state.inverse,
                                                         block))
        # a watch after adds scores afresh too, dropping what was pending
        state.add(rows[:, :2])
        others = np.conj(np.swapaxes(
            random_channel(rng, 8, 4).reshape(2, 4, 4), 1, 2))
        state.watch(others, block)
        assert np.array_equal(state.score, direct_scores(others, state.inverse,
                                                         block))

    @pytest.mark.parametrize("block", [1, 4])
    @pytest.mark.parametrize("n_candidates", [_CHUNK - 1, _CHUNK + 1,
                                              2 * _CHUNK + 5, 3 * _CHUNK])
    def test_watch_pieces_score_as_the_whole(self, block, n_candidates):
        # the matched filter is formed in pieces of about _CHUNK rows; at
        # every split the scores equal the whole set's, fresh and after adds
        rng = np.random.default_rng(n_candidates)
        rows = random_channel(rng, 3, n_candidates * block, 16)
        state = GreedyState(3, 16, 0.8)
        state.watch(rows, block)
        assert np.array_equal(state.score, direct_scores(rows, state.inverse,
                                                         block))
        state.add(random_channel(rng, 3, 2, 16))
        state.watch(rows, block)
        assert np.array_equal(state.score, direct_scores(rows, state.inverse,
                                                         block))

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
        assert state.pick(np.ones((1, 2), dtype=bool))[0] == 1

    def test_batch_equals_batches_of_one(self):
        rng = np.random.default_rng(11)
        n_trials, k = 5, 6
        blocks = [random_channel(rng, n_trials * k, 2).reshape(n_trials, k, 2)
                  for _ in range(4)]
        candidates = random_channel(rng, n_trials * k, 9).reshape(n_trials, k, 9)
        rows = np.conj(np.swapaxes(candidates, 1, 2))
        live = rng.random((n_trials, 9)) < 0.6
        live[:, 0] = True
        batch = GreedyState(n_trials, k, 0.8)
        alone = [GreedyState(1, k, 0.8) for _ in range(n_trials)]
        batch.watch(rows)
        for t, state in enumerate(alone):
            state.watch(rows[t:t + 1])
        for block in blocks:
            block_rows = np.conj(np.swapaxes(block, 1, 2))
            batch.add(block_rows)
            picks = batch.pick(live)
            for t, state in enumerate(alone):
                state.add(block_rows[t:t + 1])
                assert picks[t] == state.pick(live[t:t + 1])[0]
        for t, state in enumerate(alone):
            assert np.array_equal(batch.inverse[t], state.inverse[0])
            assert np.array_equal(batch.score[t], state.score[0])
            assert batch.objective()[t] == state.objective()[0]

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
    """Candidate choice: the largest score among live candidates, the lowest
    index on ties."""

    def test_fresh_state_picks_largest_column(self):
        rng = np.random.default_rng(13)
        columns = random_channel(rng, 4, 10)
        state = GreedyState(1, 4, 1.0)
        state.watch(rows_of(columns))
        best = state.pick(np.ones((1, 10), dtype=bool))
        norms = np.linalg.norm(columns, axis=0) ** 2
        assert best[0] == int(np.argmax(norms))

    def test_single_live_candidate(self):
        rng = np.random.default_rng(14)
        live = np.zeros((1, 8), dtype=bool)
        live[0, 5] = True
        state = GreedyState(1, 4, 1.0)
        state.watch(rows_of(random_channel(rng, 4, 8)))
        assert state.pick(live)[0] == 5

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
        state.add(rows_of(picked))
        live = np.isin(np.arange(12), candidates)[None]
        assert state.pick(live)[0] == want

    def test_ties_go_to_lowest_index(self):
        column = np.array([1.0, 2.0j, -1.0])
        columns = np.stack([0.5 * column, column, column, column], axis=1)
        live = np.array([[True, False, True, True]])
        state = GreedyState(1, 3, 1.0)
        state.watch(rows_of(columns))
        assert state.pick(live)[0] == 2

    def test_blocks_score_their_summed_columns(self):
        rng = np.random.default_rng(15)
        columns = random_channel(rng, 3, 6)  # three blocks of two columns
        state = GreedyState(1, 3, 0.9)
        per_column = GreedyState(1, 3, 0.9)
        state.watch(rows_of(columns), block=2)
        per_column.watch(rows_of(columns))
        live = np.array([[True, True, True]])
        for added in (None, random_channel(rng, 3, 1)):
            if added is not None:  # kept block scores follow an add too
                state.add(rows_of(added))
                per_column.add(rows_of(added))
            blocks = state.score[0]
            summed = per_column.score[0].reshape(3, 2).sum(axis=1)
            assert np.allclose(blocks, summed, rtol=1e-14, atol=0.0)
            assert state.pick(live)[0] == int(np.argmax(blocks))

    def test_empty_candidates(self):
        state = GreedyState(2, 3, 1.0)
        state.watch(np.ones((2, 4, 3), dtype=complex))
        live = np.ones((2, 4), dtype=bool)
        live[1] = False
        with pytest.raises(ValueError, match="empty"):
            state.pick(live)

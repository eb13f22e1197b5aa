import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcla.alternating import (initial_heights, optimize_angles,
                              optimize_heights, solve_alternating)
from fcla.channel import build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.harness import TrialBatch, rates
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import rzf
from fcla.solution import solutions
from spacing_oracle import check_spacing
from test_channel import channel_entry_oracle
from test_properties import instances


def make_setup(m=2, n=2, g_h=4, g_v=4, users=4, n_paths=2, seed=0,
               pattern=None):
    config = FclaConfig(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                        pattern=pattern or PatternSpec.omni())
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed])])
    dictionary = build_joint_dictionary(paths, config)
    return config, paths, dictionary


class TestInitialHeights:
    def test_even_spread(self):
        config, _, _ = make_setup(m=2, g_v=4)
        assert initial_heights(config.g_v, 2).tolist() == [0, 3]

    def test_single_ring(self):
        config, _, _ = make_setup(m=1, n=2)
        assert initial_heights(config.g_v, 1).tolist() == [0]

    def test_distinct_for_many_shapes(self):
        for g_v in range(2, 12):
            for m in range(1, g_v + 1):
                slots = initial_heights(g_v, m)
                assert len(set(slots.tolist())) == m
                assert 0 <= slots.min() and slots.max() < g_v


def plain_omp_reference(columns, n_select, alpha):
    """Straightforward greedy loop over one ring's candidate columns; refit
    each step."""
    n_users, n_columns = columns.shape
    residual = np.eye(n_users, dtype=complex)
    picked = []
    for _ in range(n_select):
        scores = []
        for g in range(n_columns):
            if g in picked:
                scores.append(-1.0)
                continue
            row = columns[:, g].conj() @ residual
            scores.append(float(np.sum(np.abs(row) ** 2)))
        g = int(np.argmax(scores))
        picked.append(g)
        H = columns[:, picked]
        F = rzf(H, alpha)
        residual = np.eye(n_users) - H @ F
    return picked


def ring_columns(paths, config, angles, z):
    """Channel columns (trial 0) at the given angle indices of one ring at
    height z, from the element-loop oracle rather than the dictionary."""
    return np.array([[channel_entry_oracle(paths, k, config.psi[a], z, config)
                      for a in angles] for k in range(paths.beta.shape[1])])


class TestOptimizeAngles:
    def test_single_ring_reduces_to_plain_omp(self):
        config, paths, d = make_setup(m=1, n=2, g_h=5, g_v=2)
        angles = optimize_angles(d, [0], config.n_elements, 1.0)
        columns = ring_columns(paths, config, range(5), config.z[0])
        want = plain_omp_reference(columns, 2, 1.0)
        assert angles.tolist() == [[want]]

    def test_full_ring_forced(self):
        config, _, d = make_setup(m=2, n=2, g_h=2, g_v=4)
        (angles,) = optimize_angles(d, initial_heights(4, 2),
                                    config.n_elements, 1.0)
        for ring in angles:
            assert sorted(ring.tolist()) == [0, 1]

    def test_parallel_selection_matches_scan_oracle(self):
        # rings score candidates against the shared residual of the previous
        # inner step; verify each pick against an explicit per-ring scan
        config, paths, d = make_setup(m=2, n=1, g_h=3, g_v=4, seed=5)
        slots = initial_heights(config.g_v, 2)
        want = []
        for slot in slots:
            columns = ring_columns(paths, config, range(3), config.z[slot])
            scores = np.sum(np.abs(columns.conj().T) ** 2, axis=1)
            want.append(int(np.argmax(scores)))
        (angles,) = optimize_angles(d, slots, config.n_elements, 1.0)
        assert angles[:, 0].tolist() == want

    def test_rejects_duplicate_heights(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError):
            optimize_angles(d, [1, 1], config.n_elements, 1.0)


class TestOptimizeHeights:
    def test_forced_permutation_when_slots_match_rings(self):
        config, _, d = make_setup(m=3, n=1, g_h=3, g_v=3, seed=1)
        (slots,) = optimize_heights(d, [[0], [1], [2]], 1.0)
        assert sorted(slots.tolist()) == [0, 1, 2]

    def test_more_rings_than_slots_rejected(self):
        config, _, d = make_setup(m=2, n=1, g_h=3, g_v=2, seed=1)
        with pytest.raises(ValueError, match="empty"):
            optimize_heights(d, [[0], [1], [2]], 1.0)

    def test_two_slot_selection_picks_stronger_block(self):
        config, paths, d = make_setup(m=1, n=2, g_h=4, g_v=2, seed=2)
        scores = []
        for slot in range(2):
            block = ring_columns(paths, config, [0, 2], config.z[slot])
            scores.append(float(np.linalg.norm(block.conj().T, "fro") ** 2))
        (slots,) = optimize_heights(d, [[0, 2]], 1.0)
        assert slots[0] == int(np.argmax(scores))

    def test_block_scan_oracle(self):
        config, paths, d = make_setup(m=2, n=2, g_h=4, g_v=3, seed=3)
        angles = [[0, 2], [1, 3]]
        n_users = paths.beta.shape[1]

        residual = np.eye(n_users, dtype=complex)
        taken = []
        blocks = []
        for m in range(2):
            best, best_score = None, -1.0
            for slot in range(3):
                if slot in taken:
                    continue
                cols = ring_columns(paths, config, angles[m], config.z[slot])
                score = float(np.linalg.norm(cols.conj().T @ residual,
                                             "fro") ** 2)
                if score > best_score:
                    best, best_score = slot, score
            taken.append(best)
            blocks.append(ring_columns(paths, config, angles[m],
                                       config.z[best]))
            H = np.hstack(blocks)
            F = rzf(H, 1.0)
            residual = np.eye(n_users) - H @ F

        (slots,) = optimize_heights(d, angles, 1.0)
        assert slots.tolist() == taken
        columns = (slots[:, None] * config.g_h + np.array(angles)).ravel()
        assert np.allclose(d.rows[0, columns].conj().T, H, rtol=0.0, atol=1e-12)

    def test_heights_distinct(self):
        config, _, d = make_setup(m=3, n=2, g_h=4, g_v=5, seed=4)
        angles = optimize_angles(d, initial_heights(5, 3),
                                 config.n_elements, 1.0)
        (slots,) = optimize_heights(d, angles, 1.0)
        assert len(set(slots.tolist())) == 3

    def test_rejects_repeated_angles(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError):
            optimize_heights(d, [[0, 0], [1, 2]], 1.0)


class TestSolveAlternating:
    def test_single_round_composes_phases(self):
        config, _, d = make_setup(m=2, n=2, g_h=3, g_v=2, seed=6)
        sol = solve_alternating(d, config, 1.0, 1)
        angles = optimize_angles(d, initial_heights(2, 2),
                                 config.n_elements, 1.0)
        (slots,) = optimize_heights(d, angles, 1.0)
        (angles,) = angles
        assert sol.iterations.tolist() == [1]
        assert np.array_equal(sol.slots[0], slots)
        assert np.array_equal(sol.angles[0], config.psi[angles])
        assert np.array_equal(sol.heights[0], config.z[slots])
        columns = (slots[:, None] * config.g_h + angles).ravel()
        H = np.ascontiguousarray(d.rows[0, columns].conj().T)
        assert np.array_equal(sol.H_star[0], H)
        assert np.array_equal(sol.F[0], rzf(H, 1.0))

    def test_placement_feasible_and_aligned(self):
        for seed in range(4):
            config, paths, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed,
                                             pattern=PatternSpec.directional(1.0))
            sol = solve_alternating(d, config, 1.0, 3)
            (columns,) = sol.columns
            placement = list(zip(d.psi[columns], d.z[columns]))
            check_spacing(placement, config)
            H = [[channel_entry_oracle(paths, k, psi, z, config)
                  for psi, z in placement] for k in range(4)]
            assert np.allclose(sol.H_star[0], H, rtol=0.0, atol=1e-12)
            assert len(placement) == 4
            # columns are ring-major blocks of the ring's angles
            flat = [(sol.angles[0, m, n], sol.heights[0, m])
                    for m in range(2) for n in range(2)]
            assert flat == placement

    def test_round_columns_recorded(self):
        config, paths, d = make_setup(seed=8)
        sol = solve_alternating(d, config, 1.0, 4)
        assert sol.round_columns.shape == (1, 4, 4)
        assert np.array_equal(sol.round_columns[:, -1], sol.columns)
        # the last round, refit from its columns, rates as the final record
        batch = TrialBatch(paths, d, config, alpha=1.0, power=2.0,
                           sigma2=0.5, n_outer=4)
        assert np.array_equal(rates(batch, sol, [3]), rates(batch, sol))

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, _, d = make_setup(m=1, n=2, g_h=3, g_v=2, seed=seed)
            sol = solve_alternating(d, config, 1.0, 3)
            ((best, _),) = exhaustive_best(d, config, alpha=1.0)
            assert sol.objective[0] >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, d = make_setup(seed=10)
        a = solve_alternating(d, config, 1.0, 3)
        b = solve_alternating(d, config, 1.0, 3)
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.round_columns, b.round_columns)

    def test_rejects_zero_rounds(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError):
            solve_alternating(d, config, 1.0, 0)

    def test_matched_filter_work_below_joint(self):
        # the alternating decomposition exists to cut matching work
        config, _, d = make_setup(m=4, n=4, g_h=12, g_v=12, users=8,
                                     n_paths=4, seed=12)
        joint = solve_joint(d, config, 1.0)
        alt = solve_alternating(d, config, 1.0, 5)
        assert alt.matched_filter_columns[0] < joint.matched_filter_columns[0]


RECORD_FIELDS = ("columns", "slots", "heights", "angles", "radius", "H_star",
                 "F", "objective", "iterations", "matched_filter_columns",
                 "round_columns")


def every_round_reference(dictionary, config, alpha, n_outer):
    """solve_alternating's record from running both phases for all n_outer
    rounds on every trial, settled or not, and whether each round returned
    the slots that seeded it, (B, R). A trial counts matched-filter work up
    to and including its first such round."""
    g_h = dictionary.group_size
    slots = initial_heights(dictionary.n_groups, config.m_rings)
    settled, round_columns = [], []
    for _ in range(n_outer):
        angles = optimize_angles(dictionary, slots, config.n_elements, alpha)
        seed_slots = slots
        slots = optimize_heights(dictionary, angles, alpha)
        settled.append((slots == seed_slots).all(axis=1))
        round_columns.append(
            (slots[..., None] * g_h + angles).reshape(len(slots), -1))
    settled = np.stack(settled, axis=1)
    rounds_run = np.where(settled.any(axis=1), settled.argmax(axis=1) + 1,
                          n_outer)
    record = solutions(
        dictionary, round_columns[-1], slots, alpha, iterations=n_outer,
        matched_filter_columns=rounds_run * config.m_rings * config.n_elements
        * (g_h + dictionary.n_groups),
        round_columns=np.stack(round_columns, axis=1))
    return record, settled


def check_retirement(dictionary, config, alpha, n_outer):
    """Check that solve_alternating equals the every-round reference on every
    record field, and that the reference repeats a trial's round once its
    slots repeat their seed; return solve_alternating's record."""
    want, settled = every_round_reference(dictionary, config, alpha, n_outer)
    got = solve_alternating(dictionary, config, alpha, n_outer)
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for t, r in zip(*np.nonzero(settled)):
        trace = want.round_columns[t]
        assert (trace[r:] == trace[r]).all(), (t, r)
    return got


class TestRetirement:
    """Trials whose slots repeat leave the batch; the record is unchanged."""

    @given(instances(max_trials=4), st.integers(1, 10))
    def test_equals_every_round_on_every_trial(self, instance, n_outer):
        config, paths = instance
        check_retirement(build_joint_dictionary(paths, config), config, 0.8,
                         n_outer)

    def test_settled_trial_counts_only_rounds_run(self):
        config = FclaConfig(2, 2, 4, 4, d_min=0.05, wavelength=0.1,
                            pattern=PatternSpec.directional(1.0))
        seeds = [np.random.SeedSequence([t]) for t in range(4)]
        d = build_joint_dictionary(draw_paths(4, 2, seeds), config)
        sol = check_retirement(d, config, 1.0, 3)
        # trials 0 and 2 settle in their first round, trial 3 runs all three
        assert sol.matched_filter_columns.tolist() == [
            rounds * 2 * 2 * (4 + 4) for rounds in (1, 2, 1, 3)]
        assert sol.iterations.tolist() == [3] * 4


class TestStackedTrials:
    """A (B, K, G) dictionary solves every trial as if it were alone."""

    @pytest.mark.parametrize("n_trials", [1, 3, 8])
    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0)])
    def test_stack_matches_one_at_a_time(self, n_trials, pattern):
        config = FclaConfig(3, 2, 6, 5, d_min=0.05, wavelength=0.1,
                            pattern=pattern)
        seeds = [np.random.SeedSequence([n_trials, t]) for t in range(n_trials)]
        stacked = build_joint_dictionary(draw_paths(6, 3, seeds), config)
        single = [build_joint_dictionary(draw_paths(6, 3, [seed]), config)
                  for seed in seeds]
        batch = solve_alternating(stacked, config, 0.7, 3)
        assert batch.columns.shape == (n_trials, 6)
        alone = [solve_alternating(d, config, 0.7, 3) for d in single]
        for t, want in enumerate(alone):
            for name in ("columns", "slots", "heights", "angles", "H_star",
                         "F", "objective", "iterations",
                         "matched_filter_columns", "round_columns"):
                assert np.array_equal(getattr(batch, name)[t],
                                      getattr(want, name)[0]), name
        assert batch.diagnostics["matched_filter_columns"] == sum(
            s.matched_filter_columns[0] for s in alone)

    def test_phases_take_per_trial_indices(self):
        config = FclaConfig(2, 2, 4, 4, d_min=0.05, wavelength=0.1)
        seeds = [np.random.SeedSequence([t]) for t in range(3)]
        stacked = build_joint_dictionary(draw_paths(4, 2, seeds), config)
        single = [build_joint_dictionary(draw_paths(4, 2, [seed]), config)
                  for seed in seeds]
        slots = np.array([[0, 3], [1, 2], [3, 0]])
        angles = optimize_angles(stacked, slots, config.n_elements, 1.0)
        heights = optimize_heights(stacked, angles, 1.0)
        for t, d in enumerate(single):
            want_angles = optimize_angles(d, slots[t], config.n_elements, 1.0)
            assert np.array_equal(angles[t], want_angles[0])
            want_heights = optimize_heights(d, angles[t], 1.0)
            assert np.array_equal(heights[t], want_heights[0])

    def test_rejects_shared_slot_in_any_trial(self):
        config, _, _ = make_setup()
        stacked = build_joint_dictionary(
            draw_paths(4, 2, [np.random.SeedSequence([t]) for t in range(2)]),
            config)
        with pytest.raises(ValueError):
            optimize_angles(stacked, [[0, 1], [2, 2]], config.n_elements, 1.0)

    def test_rejects_zero_forcing(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError, match="alpha"):
            solve_alternating(d, config, 0.0, 2)

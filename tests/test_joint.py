from unittest import mock

import numpy as np
import pytest

from fcla import joint
from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import GreedyState, normalize_columns, rzf_objective
from greedy_oracle import CountingState
from spacing_oracle import check_spacing


def make_setup(m=2, n=2, g_h=4, g_v=4, users=4, n_paths=2, seed=0,
               pattern=None):
    config = FclaConfig(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                        pattern=pattern or PatternSpec.omni())
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed])])
    dictionary = build_joint_dictionary(paths, config)
    return config, paths, dictionary


def tiny_dictionary(columns, config):
    """Hand-built one-trial dictionary over config's grid with given
    column vectors."""
    return Dictionary(np.conj(np.array(columns, dtype=complex))[None], config)


class TestGroupCompletion:
    def test_partial_groups_are_filtered_from_final_support(self):
        """Crafted two-user instance: the second pick lands in a height group
        that never fills, so it is dropped from the final placement."""
        config = FclaConfig(1, 2, 2, 2, d_min=0.05, wavelength=0.1)
        d = tiny_dictionary(
            [[10.0, 0.0],   # group 0, strongest: picked first
             [0.0, 3.0],    # group 0, completes the group on pick three
             [0.0, 4.0],    # group 1, outscores column 1 on pick two
             [0.1, 0.1]],   # group 1, never picked
            config)
        sol = solve_joint(d, alpha=1.0)
        assert sol.iterations.tolist() == [3]
        assert sol.picks[0, :3].tolist() == [0, 2, 1]
        assert sol.columns.tolist() == [[0, 1]]
        assert sol.slots.tolist() == [[0]]
        assert np.allclose(sol.heights, [[0.0]])
        assert np.allclose(sol.angles, [[config.psi]])

    def test_forced_full_grid(self):
        config, paths, d = make_setup(m=2, n=2, g_h=2, g_v=2)
        sol = solve_joint(d, alpha=1.0)
        assert sol.iterations.tolist() == [4]
        assert sorted(sol.columns[0].tolist()) == [0, 1, 2, 3]
        assert sorted(sol.heights[0].tolist()) == config.z.tolist()

    def test_support_size_and_feasibility(self):
        for seed in range(5):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, seed=seed,
                                         pattern=PatternSpec.directional(1.0))
            sol = solve_joint(d, alpha=1.0)
            assert sol.columns.shape == (1, 4)
            check_spacing(list(zip(d.psi[sol.columns[0]], d.z[sol.columns[0]])),
                          config)
            assert len(set(sol.heights[0].tolist())) == config.m_rings
            assert sol.angles.shape == (1, 2, 2)


class TestSolveJoint:
    def test_objective_nonincreasing_over_iterations(self):
        for seed in range(4):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, alpha=0.8)
            trace = sol.pick_objectives[0, :sol.iterations[0]].tolist()
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_iteration_count_bounds(self):
        for seed in range(6):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, alpha=1.0)
            kept = config.m_rings * config.n_elements
            assert kept <= sol.iterations[0] <= config.g_h * config.g_v

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, _, d = make_setup(m=1, n=2, g_h=3, g_v=3, seed=seed)
            sol = solve_joint(d, alpha=1.0)
            ((best, _),) = exhaustive_best(d, alpha=1.0)
            (objective,) = rzf_objective(sol.H_star, sol.F, 1.0)
            assert objective >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, d = make_setup(seed=9)
        a = solve_joint(d, alpha=1.0)
        b = solve_joint(d, alpha=1.0)
        assert np.array_equal(a.picks, b.picks)
        assert np.array_equal(a.F, b.F)

    def test_final_channel_and_precoder_match_the_refit(self):
        config, _, d = make_setup(seed=2)
        sol = solve_joint(d, alpha=1.0)
        H = np.ascontiguousarray(d.rows[0, sol.columns[0]].conj().T)
        assert np.array_equal(H, sol.H_star[0])
        from fcla.precoding import rzf
        from test_precoding import rzf_oracle
        F_raw = rzf(H, 1.0)
        assert np.max(np.abs(F_raw - rzf_oracle(H, 1.0))) < 1e-10
        assert np.array_equal(F_raw, sol.F[0])

    def test_normalized_power(self):
        config, _, d = make_setup(seed=3)
        sol = solve_joint(d, alpha=1.0)
        F = normalize_columns(sol.F[0], 2.0)
        assert abs(np.linalg.norm(F, "fro") ** 2 - 2.0) < 1e-12


PATTERNS = [PatternSpec.omni(), PatternSpec.directional(1.0)]


def finishing_batch(pattern):
    """(config, dictionary) of 8 trials on the grid of
    test_stack_matches_one_at_a_time, which finish at different steps."""
    config = FclaConfig(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                        pattern=pattern)
    seeds = [np.random.SeedSequence([8, t]) for t in range(8)]
    return config, build_joint_dictionary(draw_paths(6, 3, seeds), config)


class TestStackedTrials:
    """A (B, K, G) dictionary solves every trial as if it were alone."""

    @pytest.mark.parametrize("n_trials", [1, 3, 8])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_stack_matches_one_at_a_time(self, n_trials, pattern):
        config = FclaConfig(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                            pattern=pattern)
        seeds = [np.random.SeedSequence([n_trials, t]) for t in range(n_trials)]
        stacked = build_joint_dictionary(draw_paths(6, 3, seeds), config)
        single = [build_joint_dictionary(draw_paths(6, 3, [seed]), config)
                  for seed in seeds]
        batch = solve_joint(stacked, 0.7)
        assert batch.columns.shape == (n_trials, 6)
        alone = [solve_joint(d, 0.7) for d in single]
        for t, want in enumerate(alone):
            steps = want.iterations[0]
            assert batch.iterations[t] == steps
            for name in ("picks", "pick_objectives"):
                assert np.array_equal(getattr(batch, name)[t, :steps],
                                      getattr(want, name)[0, :steps])
            for name in ("columns", "slots", "heights", "angles", "H_star",
                         "F", "matched_filter_columns"):
                assert np.array_equal(getattr(batch, name)[t],
                                      getattr(want, name)[0]), name
        totals = batch.diagnostics
        assert totals["iterations"] == sum(s.iterations[0] for s in alone)
        assert totals["support"].tolist() == [
            g for s in alone for g in s.picks[0, :s.iterations[0]].tolist()]
        assert totals["final_support"].tolist() == [
            g for s in alone for g in s.columns[0].tolist()]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_trials_finish_at_different_steps(self, pattern):
        # trials of one batch run different iteration counts, so finished
        # trials must leave the batch without moving the others
        config, stacked = finishing_batch(pattern)
        iterations = solve_joint(stacked, 0.7).iterations
        assert len(set(iterations.tolist())) > 1

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_finished_trials_are_carried_no_further(self, pattern):
        # each add is carried into the G watched rows of the trials still
        # running: G rows per step a trial runs, where carrying the whole
        # batch to its slowest trial's end would take B G rows per step
        config, stacked = finishing_batch(pattern)
        states = []

        def counting(*args):
            states.append(CountingState(*args))
            return states[-1]

        with mock.patch.object(joint, "GreedyState", counting):
            iterations = solve_joint(stacked, 0.7).iterations
        (state,) = states
        assert state.trial_rows_carried == config.g_h * config.g_v * iterations.sum()

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_rows_are_restored(self, pattern):
        # finished trials swap their rows behind the running ones in place;
        # the solve swaps them back, without copying the rows
        config, stacked = finishing_batch(pattern)
        rows, before = stacked.rows, stacked.rows.copy()
        solve_joint(stacked, 0.7)
        assert stacked.rows is rows
        assert np.array_equal(rows, before)

    def test_rows_are_restored_when_a_step_raises(self):
        # a state that fails at its first add after a trial has retired
        config, stacked = finishing_batch(PatternSpec.omni())
        before = stacked.rows.copy()

        class Failing(GreedyState):
            retired = False

            def retire(self, trial):
                super().retire(trial)
                self.retired = True

            def add(self, rows):
                if self.retired:
                    raise FloatingPointError("mid-solve")
                super().add(rows)

        with mock.patch.object(joint, "GreedyState", Failing), \
                pytest.raises(FloatingPointError):
            solve_joint(stacked, 0.7)
        assert np.array_equal(stacked.rows, before)

    def test_rejects_zero_forcing(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError, match="alpha"):
            solve_joint(d, alpha=0.0)

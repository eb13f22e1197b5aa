import numpy as np
import pytest

from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import normalize_columns, rzf_objective
from spacing_oracle import check_spacing


def make_setup(m=2, n=2, g_h=4, g_v=4, users=4, n_paths=2, seed=0,
               pattern=None):
    config = FclaConfig(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                        pattern=pattern or PatternSpec.omni())
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed])])
    dictionary = build_joint_dictionary(paths, config)
    return config, paths, dictionary


def tiny_dictionary(columns, g_h, g_v):
    """Hand-built one-trial dictionary over a g_h x g_v grid with given
    column vectors."""
    rows = np.conj(np.array(columns, dtype=complex))[None]
    psi = np.tile(np.arange(g_h) * (2.0 * np.pi / g_h), g_v)
    z = np.repeat(np.arange(g_v) * 0.05, g_h)
    return Dictionary(rows=rows, psi=psi, z=z, group_size=g_h,
                      radius=0.05 / (2.0 * np.sin(np.pi / g_h)))


class TestGroupCompletion:
    def test_partial_groups_are_filtered_from_final_support(self):
        """Crafted two-user instance: the second pick lands in a height group
        that never fills, so it is dropped from the final placement."""
        d = tiny_dictionary(
            [[10.0, 0.0],   # group 0, strongest: picked first
             [0.0, 3.0],    # group 0, completes the group on pick three
             [0.0, 4.0],    # group 1, outscores column 1 on pick two
             [0.1, 0.1]],   # group 1, never picked
            g_h=2, g_v=2)
        config = FclaConfig(1, 2, 2, 2, d_min=0.05, wavelength=0.1)
        sol = solve_joint(d, config, alpha=1.0)
        assert sol.iterations.tolist() == [3]
        assert sol.picks[0, :3].tolist() == [0, 2, 1]
        assert sol.columns.tolist() == [[0, 1]]
        assert sol.slots.tolist() == [[0]]
        assert np.allclose(sol.heights, [[0.0]])
        assert np.allclose(sol.angles, [[[d.psi[0], d.psi[1]]]])

    def test_forced_full_grid(self):
        config, paths, d = make_setup(m=2, n=2, g_h=2, g_v=2)
        sol = solve_joint(d, config, alpha=1.0)
        assert sol.iterations.tolist() == [4]
        assert sorted(sol.columns[0].tolist()) == [0, 1, 2, 3]
        assert sorted(sol.heights[0].tolist()) == config.z.tolist()

    def test_support_size_and_feasibility(self):
        for seed in range(5):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, seed=seed,
                                         pattern=PatternSpec.directional(1.0))
            sol = solve_joint(d, config, alpha=1.0)
            assert sol.columns.shape == (1, 4)
            check_spacing(list(zip(d.psi[sol.columns[0]], d.z[sol.columns[0]])),
                          config)
            assert len(set(sol.heights[0].tolist())) == config.m_rings
            assert sol.angles.shape == (1, 2, 2)


class TestSolveJoint:
    def test_objective_nonincreasing_over_iterations(self):
        for seed in range(4):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, config, alpha=0.8)
            trace = sol.pick_objectives[0, :sol.iterations[0]].tolist()
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_iteration_count_bounds(self):
        for seed in range(6):
            config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, config, alpha=1.0)
            kept = config.m_rings * config.n_elements
            assert kept <= sol.iterations[0] <= config.g_h * config.g_v

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, _, d = make_setup(m=1, n=2, g_h=3, g_v=3, seed=seed)
            sol = solve_joint(d, config, alpha=1.0)
            ((best, _),) = exhaustive_best(d, config, alpha=1.0)
            assert sol.objective[0] >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, d = make_setup(seed=9)
        a = solve_joint(d, config, alpha=1.0)
        b = solve_joint(d, config, alpha=1.0)
        assert np.array_equal(a.picks, b.picks)
        assert np.array_equal(a.F, b.F)

    def test_final_channel_matches_recorded_objective(self):
        config, _, d = make_setup(seed=2)
        sol = solve_joint(d, config, alpha=1.0)
        H = np.ascontiguousarray(d.rows[0, sol.columns[0]].conj().T)
        assert np.array_equal(H, sol.H_star[0])
        from fcla.precoding import rzf
        F_raw = rzf(H, 1.0, gram="k")
        assert np.isclose(rzf_objective(H, F_raw, 1.0), sol.objective[0])

    def test_normalized_power(self):
        config, _, d = make_setup(seed=3)
        sol = solve_joint(d, config, alpha=1.0)
        F = normalize_columns(sol.F[0], 2.0)
        assert abs(np.linalg.norm(F, "fro") ** 2 - 2.0) < 1e-12

    def test_rejects_grid_too_small(self):
        config, paths, _ = make_setup(m=2, g_v=2)
        too_few_slots = build_joint_dictionary(paths, config)
        three_rings = FclaConfig(3, 2, 4, 4, d_min=0.05, wavelength=0.1)
        with pytest.raises(ValueError):
            solve_joint(too_few_slots, three_rings, alpha=1.0)


class TestStackedTrials:
    """A (B, K, G) dictionary solves every trial as if it were alone."""

    @pytest.mark.parametrize("n_trials", [1, 3, 8])
    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0)])
    def test_stack_matches_one_at_a_time(self, n_trials, pattern):
        config = FclaConfig(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                            pattern=pattern)
        seeds = [np.random.SeedSequence([n_trials, t]) for t in range(n_trials)]
        stacked = build_joint_dictionary(draw_paths(6, 3, seeds), config)
        single = [build_joint_dictionary(draw_paths(6, 3, [seed]), config)
                  for seed in seeds]
        batch = solve_joint(stacked, config, 0.7)
        assert batch.columns.shape == (n_trials, 6)
        alone = [solve_joint(d, config, 0.7) for d in single]
        for t, want in enumerate(alone):
            steps = want.iterations[0]
            assert batch.iterations[t] == steps
            for name in ("picks", "pick_objectives"):
                assert np.array_equal(getattr(batch, name)[t, :steps],
                                      getattr(want, name)[0, :steps])
            for name in ("columns", "slots", "heights", "angles", "H_star",
                         "F", "objective", "matched_filter_columns"):
                assert np.array_equal(getattr(batch, name)[t],
                                      getattr(want, name)[0]), name
        totals = batch.diagnostics
        assert totals["iterations"] == sum(s.iterations[0] for s in alone)
        assert totals["support"].tolist() == [
            g for s in alone for g in s.picks[0, :s.iterations[0]].tolist()]
        assert totals["final_support"].tolist() == [
            g for s in alone for g in s.columns[0].tolist()]

    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0)])
    def test_trials_finish_at_different_steps(self, pattern):
        # the grid of test_stack_matches_one_at_a_time: trials of one batch
        # run different iteration counts, so finished trials must stay frozen
        config = FclaConfig(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                            pattern=pattern)
        stacked = build_joint_dictionary(
            draw_paths(6, 3, [np.random.SeedSequence([8, t]) for t in range(8)]),
            config)
        iterations = solve_joint(stacked, config, 0.7).iterations
        assert len(set(iterations.tolist())) > 1

    def test_rejects_zero_forcing(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError, match="alpha"):
            solve_joint(d, config, alpha=0.0)

import numpy as np
import pytest

from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig, build_grid, check_spacing
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import rzf_objective


def make_setup(m=2, n=2, g_h=4, g_v=4, users=4, n_paths=2, seed=0,
               pattern=None):
    config = FclaConfig.from_grid(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                                  pattern=pattern or PatternSpec.omni())
    grid = build_grid(config)
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed])])
    dictionary = build_joint_dictionary(paths, grid, config)
    return config, grid, paths, dictionary


def tiny_dictionary(columns, g_h, g_v):
    """Hand-built one-trial dictionary over a g_h x g_v grid with given
    column vectors."""
    entries = np.array(columns, dtype=complex).T[None]
    psi = np.tile(np.arange(g_h) * (2.0 * np.pi / g_h), g_v)
    z = np.repeat(np.arange(g_v) * 0.05, g_h)
    return Dictionary(entries=entries, psi=psi, z=z, group_size=g_h)


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
        config = FclaConfig.from_grid(1, 2, 2, 2, d_min=0.05, wavelength=0.1)
        (sol,) = solve_joint(d, config, alpha=1.0)
        picked = [row[1] for row in sol.diagnostics["trace"]]
        assert picked == [0, 2, 1]
        assert sol.diagnostics["final_support"] == [0, 1]
        assert sol.diagnostics["iterations"] == 3
        assert np.allclose(sol.heights, [0.0])
        assert np.allclose(sol.angles, [[d.psi[0], d.psi[1]]])

    def test_forced_full_grid(self):
        config, grid, paths, d = make_setup(m=2, n=2, g_h=2, g_v=2)
        (sol,) = solve_joint(d, config, alpha=1.0)
        assert sol.diagnostics["iterations"] == 4
        assert sorted(sol.diagnostics["final_support"]) == [0, 1, 2, 3]
        assert sorted(sol.heights.tolist()) == grid.z.tolist()

    def test_support_size_and_feasibility(self):
        for seed in range(5):
            config, _, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, seed=seed,
                                         pattern=PatternSpec.directional(1.0))
            (sol,) = solve_joint(d, config, alpha=1.0)
            assert len(sol.diagnostics["final_support"]) == 4
            assert len(sol.placement) == 4
            check_spacing(sol.placement, config)
            assert len(set(sol.heights.tolist())) == config.m_rings
            assert sol.angles.shape == (2, 2)


class TestSolveJoint:
    def test_objective_nonincreasing_over_iterations(self):
        for seed in range(4):
            config, _, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            (sol,) = solve_joint(d, config, alpha=0.8)
            trace = sol.diagnostics["objective_trace"]
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_iteration_count_bounds(self):
        for seed in range(6):
            config, grid, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            (sol,) = solve_joint(d, config, alpha=1.0)
            kept = config.m_rings * config.n_elements
            assert kept <= sol.diagnostics["iterations"] <= grid.g_h * grid.g_v

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, _, _, d = make_setup(m=1, n=2, g_h=3, g_v=3, seed=seed)
            (sol,) = solve_joint(d, config, alpha=1.0)
            ((best, _),) = exhaustive_best(d, config, alpha=1.0)
            assert sol.diagnostics["final_objective"] >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, _, d = make_setup(seed=9)
        (a,) = solve_joint(d, config, alpha=1.0)
        (b,) = solve_joint(d, config, alpha=1.0)
        assert a.diagnostics["support"] == b.diagnostics["support"]
        assert np.array_equal(a.F_star, b.F_star)

    def test_final_channel_matches_recorded_objective(self):
        config, _, _, d = make_setup(seed=2)
        (sol,) = solve_joint(d, config, alpha=1.0)
        H = d.entries[0][:, sol.diagnostics["final_support"]]
        assert np.array_equal(H, sol.H_star)
        from fcla.precoding import rzf
        F_raw = rzf(H, 1.0, gram="k")
        assert np.isclose(rzf_objective(H, F_raw, 1.0),
                          sol.diagnostics["final_objective"])

    def test_normalized_power(self):
        config, _, _, d = make_setup(seed=3)
        (sol,) = solve_joint(d, config, alpha=1.0, power=2.0)
        assert abs(np.linalg.norm(sol.F_star, "fro") ** 2 - 2.0) < 1e-12

    def test_rejects_grid_too_small(self):
        config, grid, paths, _ = make_setup(m=2, g_v=2)
        too_few_slots = build_joint_dictionary(paths, grid, config)
        three_rings = FclaConfig.from_grid(3, 2, 4, 4, d_min=0.05,
                                           wavelength=0.1)
        with pytest.raises(ValueError):
            solve_joint(too_few_slots, three_rings, alpha=1.0)

    def test_rejects_placement_closer_than_min_angle(self):
        # two angle columns 0.1 rad apart on a ring whose floor is pi/2
        config = FclaConfig.from_grid(1, 2, 4, 1, d_min=0.05, wavelength=0.1)
        d = Dictionary(entries=np.eye(2, dtype=complex)[None],
                       psi=np.array([0.0, 0.1]), z=np.zeros(2), group_size=2)
        with pytest.raises(ValueError, match="minimum revolve angle"):
            solve_joint(d, config, alpha=1.0)


class TestStackedTrials:
    """A (B, K, G) dictionary solves every trial as if it were alone."""

    @pytest.mark.parametrize("n_trials", [1, 3, 8])
    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0)])
    def test_stack_matches_one_at_a_time(self, n_trials, pattern):
        config = FclaConfig.from_grid(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                                      pattern=pattern)
        grid = build_grid(config)
        seeds = [np.random.SeedSequence([n_trials, t]) for t in range(n_trials)]
        stacked = build_joint_dictionary(draw_paths(6, 3, seeds), grid, config)
        single = [build_joint_dictionary(draw_paths(6, 3, [seed]), grid, config)
                  for seed in seeds]
        batch = solve_joint(stacked, config, 0.7, power=2.0)
        assert len(batch) == n_trials
        for d, got in zip(single, batch):
            (want,) = solve_joint(d, config, 0.7, power=2.0)
            assert got.diagnostics["support"] == want.diagnostics["support"]
            assert np.array_equal(got.H_star, want.H_star)
            assert np.array_equal(got.F_star, want.F_star)
            assert got.diagnostics == want.diagnostics
        totals = batch.diagnostics
        assert totals["iterations"] == sum(s.diagnostics["iterations"]
                                           for s in batch)
        assert totals["final_support"] == [g for s in batch
                                           for g in s.diagnostics["final_support"]]

    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0)])
    def test_trials_finish_at_different_steps(self, pattern):
        # the grid of test_stack_matches_one_at_a_time: trials of one batch
        # run different iteration counts, so finished trials must stay frozen
        config = FclaConfig.from_grid(3, 2, 5, 6, d_min=0.05, wavelength=0.1,
                                      pattern=pattern)
        grid = build_grid(config)
        stacked = build_joint_dictionary(
            draw_paths(6, 3, [np.random.SeedSequence([8, t]) for t in range(8)]),
            grid, config)
        iterations = [s.diagnostics["iterations"]
                      for s in solve_joint(stacked, config, 0.7)]
        assert len(set(iterations)) > 1

    def test_rejects_zero_forcing(self):
        config, _, _, d = make_setup()
        with pytest.raises(ValueError, match="alpha"):
            solve_joint(d, config, alpha=0.0)

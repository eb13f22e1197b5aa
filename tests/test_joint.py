import numpy as np
import pytest

from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig, build_grid, check_spacing
from fcla.joint import match_atom, solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import rzf_objective


def make_setup(m=2, n=2, g_h=4, g_v=4, users=4, n_paths=2, seed=0,
               pattern=None):
    config = FclaConfig.from_grid(m, n, g_h, g_v, d_min=0.05, wavelength=0.1,
                                  pattern=pattern or PatternSpec.omni())
    grid = build_grid(config)
    paths = draw_paths(users, n_paths, np.random.SeedSequence([seed]))
    dictionary = build_joint_dictionary(paths, grid, config)
    return config, grid, paths, dictionary


def tiny_dictionary(columns, g_h, g_v):
    """Hand-built dictionary over a g_h x g_v grid with given column vectors."""
    entries = np.array(columns, dtype=complex).T
    psi = np.tile(np.arange(g_h) * (2.0 * np.pi / g_h), g_v)
    z = np.repeat(np.arange(g_v) * 0.05, g_h)
    return Dictionary(entries=entries, psi=psi, z=z, group_size=g_h)


class TestMatchAtom:
    def test_identity_residual_reduces_to_column_norms(self):
        _, _, _, d = make_setup()
        residual = np.eye(4, dtype=complex)
        candidates = np.arange(d.n_columns)
        best = match_atom(d, residual, candidates)
        norms = np.linalg.norm(d.entries, axis=0) ** 2
        assert best == int(np.argmax(norms))

    def test_single_candidate(self):
        _, _, _, d = make_setup()
        assert match_atom(d, np.eye(4, dtype=complex), [5]) == 5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        _, _, _, d = make_setup(users=4, g_h=4, g_v=3)
        residual = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        candidates = np.array([1, 2, 5, 7, 8, 11])
        scores = {}
        for g in candidates:
            row = d.entries[:, g].conj() @ residual
            scores[g] = float(np.sum(np.abs(row) ** 2))
        want = max(sorted(scores), key=lambda g: scores[g])
        assert match_atom(d, residual, candidates) == want

    def test_l1_option(self):
        rng = np.random.default_rng(4)
        _, _, _, d = make_setup()
        residual = rng.standard_normal((4, 4)) + 0j
        candidates = np.arange(d.n_columns)
        scores = [float(np.sum(np.abs(d.entries[:, g].conj() @ residual)))
                  for g in candidates]
        assert match_atom(d, residual, candidates, norm="l1") == int(np.argmax(scores))

    def test_empty_candidates(self):
        _, _, _, d = make_setup()
        with pytest.raises(ValueError):
            match_atom(d, np.eye(4, dtype=complex), [])


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
        sol = solve_joint(d, config, alpha=1.0)
        picked = [row[1] for row in sol.diagnostics["trace"]]
        assert picked == [0, 2, 1]
        assert sol.diagnostics["final_support"] == [0, 1]
        assert sol.diagnostics["iterations"] == 3
        assert np.allclose(sol.heights, [0.0])
        assert np.allclose(sol.angles, [[d.psi[0], d.psi[1]]])

    def test_forced_full_grid(self):
        config, grid, paths, d = make_setup(m=2, n=2, g_h=2, g_v=2)
        sol = solve_joint(d, config, alpha=1.0)
        assert sol.diagnostics["iterations"] == 4
        assert sorted(sol.diagnostics["final_support"]) == [0, 1, 2, 3]
        assert sorted(sol.heights.tolist()) == grid.z.tolist()

    def test_support_size_and_feasibility(self):
        for seed in range(5):
            config, _, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, seed=seed,
                                         pattern=PatternSpec.directional(1.0))
            sol = solve_joint(d, config, alpha=1.0)
            assert len(sol.diagnostics["final_support"]) == 4
            assert len(sol.placement) == 4
            check_spacing(sol.placement, config)
            assert len(set(sol.heights.tolist())) == config.m_rings
            assert sol.angles.shape == (2, 2)


class TestSolveJoint:
    def test_objective_nonincreasing_over_iterations(self):
        for seed in range(4):
            config, _, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, config, alpha=0.8)
            trace = sol.diagnostics["objective_trace"]
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_iteration_count_bounds(self):
        for seed in range(6):
            config, grid, _, d = make_setup(m=2, n=2, g_h=4, g_v=4, seed=seed)
            sol = solve_joint(d, config, alpha=1.0)
            kept = config.m_rings * config.n_elements
            assert kept <= sol.diagnostics["iterations"] <= grid.g_h * grid.g_v

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, grid, paths, d = make_setup(m=1, n=2, g_h=3, g_v=3,
                                                seed=seed)
            sol = solve_joint(d, config, alpha=1.0)
            best = exhaustive_best(paths, grid, config, alpha=1.0)
            assert sol.diagnostics["final_objective"] >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, _, d = make_setup(seed=9)
        a = solve_joint(d, config, alpha=1.0)
        b = solve_joint(d, config, alpha=1.0)
        assert a.diagnostics["support"] == b.diagnostics["support"]
        assert np.array_equal(a.F_star, b.F_star)

    def test_final_channel_matches_recorded_objective(self):
        config, _, _, d = make_setup(seed=2)
        sol = solve_joint(d, config, alpha=1.0)
        H = d.entries[:, sol.diagnostics["final_support"]]
        assert np.array_equal(H, sol.H_star)
        from fcla.precoding import rzf
        F_raw = rzf(H, 1.0, gram="k")
        assert np.isclose(rzf_objective(H, F_raw, 1.0),
                          sol.diagnostics["final_objective"])

    def test_normalized_power(self):
        config, _, _, d = make_setup(seed=3)
        sol = solve_joint(d, config, alpha=1.0, power=2.0)
        assert abs(np.linalg.norm(sol.F_star, "fro") ** 2 - 2.0) < 1e-12

    def test_rejects_grid_too_small(self):
        config, grid, paths, _ = make_setup(m=2, g_v=2)
        too_few_slots = build_joint_dictionary(paths, grid, config)
        three_rings = FclaConfig.from_grid(3, 2, 4, 4, d_min=0.05,
                                           wavelength=0.1)
        with pytest.raises(ValueError):
            solve_joint(too_few_slots, three_rings, alpha=1.0)

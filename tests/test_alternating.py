import numpy as np
import pytest

from fcla.alternating import (initial_heights, optimize_angles,
                              optimize_heights, solve_alternating)
from fcla.channel import build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.joint import solve_joint
from fcla.oracle import exhaustive_best
from fcla.pattern import PatternSpec
from fcla.precoding import normalize_columns, rzf, sinr
from spacing_oracle import check_spacing
from test_channel import channel_entry_oracle


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
        angles, diag = optimize_angles(d, [0], config, 1.0)
        columns = ring_columns(paths, config, range(5), config.z[0])
        want = plain_omp_reference(columns, 2, 1.0)
        assert diag["support"].tolist() == [want]
        assert angles.tolist() == [[want]]

    def test_full_ring_forced(self):
        config, _, d = make_setup(m=2, n=2, g_h=2, g_v=4)
        (angles,), _ = optimize_angles(d, initial_heights(4, 2), config, 1.0)
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
        (angles,), diag = optimize_angles(d, slots, config, 1.0)
        assert angles[:, 0].tolist() == want
        assert diag["support"].tolist() == [[s * 3 + a
                                             for s, a in zip(slots, want)]]

    def test_objective_nonincreasing_within_phase(self):
        config, _, d = make_setup(m=2, n=3, g_h=5, g_v=3, seed=7)
        _, diag = optimize_angles(d, initial_heights(3, 2), config, 1.0)
        (trace,) = diag["objective_trace"]
        assert len(trace) == 3
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_rejects_duplicate_heights(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError):
            optimize_angles(d, [1, 1], config, 1.0)


class TestOptimizeHeights:
    def test_forced_permutation_when_slots_match_rings(self):
        config, _, d = make_setup(m=3, n=1, g_h=3, g_v=3, seed=1)
        (slots,), _ = optimize_heights(d, [[0], [1], [2]], config, 1.0)
        assert sorted(slots.tolist()) == [0, 1, 2]

    def test_more_rings_than_slots_rejected(self):
        config, _, d = make_setup(m=2, n=1, g_h=3, g_v=2, seed=1)
        with pytest.raises(ValueError, match="empty"):
            optimize_heights(d, [[0], [1], [2]], config, 1.0)

    def test_two_slot_selection_picks_stronger_block(self):
        config, paths, d = make_setup(m=1, n=2, g_h=4, g_v=2, seed=2)
        scores = []
        for slot in range(2):
            block = ring_columns(paths, config, [0, 2], config.z[slot])
            scores.append(float(np.linalg.norm(block.conj().T, "fro") ** 2))
        (slots,), _ = optimize_heights(d, [[0, 2]], config, 1.0)
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

        (slots,), _ = optimize_heights(d, angles, config, 1.0)
        assert slots.tolist() == taken
        columns = (slots[:, None] * config.g_h + np.array(angles)).ravel()
        assert np.allclose(d.entries[0][:, columns], H, rtol=0.0, atol=1e-12)

    def test_heights_distinct(self):
        config, _, d = make_setup(m=3, n=2, g_h=4, g_v=5, seed=4)
        angles, _ = optimize_angles(d, initial_heights(5, 3), config, 1.0)
        (slots,), _ = optimize_heights(d, angles, config, 1.0)
        assert len(set(slots.tolist())) == 3

    def test_rejects_repeated_angles(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError):
            optimize_heights(d, [[0, 0], [1, 2]], config, 1.0)


class TestSolveAlternating:
    def test_single_round_composes_phases(self):
        config, _, d = make_setup(m=2, n=2, g_h=3, g_v=2, seed=6)
        sol = solve_alternating(d, config, 1.0, 1)
        angles, _ = optimize_angles(d, initial_heights(2, 2), config, 1.0)
        (slots,), _ = optimize_heights(d, angles, config, 1.0)
        (angles,) = angles
        assert sol.iterations.tolist() == [1]
        assert np.array_equal(sol.slots[0], slots)
        assert np.array_equal(sol.angles[0], config.psi[angles])
        assert np.array_equal(sol.heights[0], config.z[slots])
        H = d.entries[0][:, (slots[:, None] * config.g_h + angles).ravel()]
        assert np.array_equal(sol.H_star[0], H)
        assert np.array_equal(sol.F_star[0],
                              normalize_columns(rzf(H, 1.0), 1.0))

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

    def test_sum_rate_trace_recorded(self):
        config, _, d = make_setup(seed=8)
        sol = solve_alternating(d, config, 1.0, 4, power=1.0, sigma2=1.0,
                                rate_trace=True)
        (trace,) = sol.sum_rate_trace
        assert len(trace) == 4
        assert all(np.isfinite(trace))
        assert trace[-1] == sinr(sol.H_star, sol.F_star, 1.0).sum_rate[0]

    def test_sum_rate_trace_only_on_request(self, monkeypatch):
        import fcla.alternating
        config, _, d = make_setup(seed=8)
        calls = []
        monkeypatch.setattr(fcla.alternating, "sinr",
                            lambda *args: calls.append(args))
        sol = solve_alternating(d, config, 1.0, 4)
        assert sol.sum_rate_trace is None
        assert calls == []

    def test_phase_objectives_nonincreasing(self):
        config, _, d = make_setup(m=2, n=3, g_h=5, g_v=4, seed=9)
        sol = solve_alternating(d, config, 1.0, 3)
        assert sol.angle_objectives.shape == (1, 3, 3)
        assert sol.height_objectives.shape == (1, 3, 2)
        for phases in (sol.angle_objectives, sol.height_objectives):
            for trace in phases[0].tolist():
                for a, b in zip(trace, trace[1:]):
                    assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_never_beats_exhaustive_oracle(self):
        for seed in range(6):
            config, _, d = make_setup(m=1, n=2, g_h=3, g_v=2, seed=seed)
            sol = solve_alternating(d, config, 1.0, 3)
            ((best, _),) = exhaustive_best(d, config, alpha=1.0)
            assert sol.objective[0] >= best.objective - 1e-9

    def test_deterministic(self):
        config, _, d = make_setup(seed=10)
        a = solve_alternating(d, config, 1.0, 3, rate_trace=True)
        b = solve_alternating(d, config, 1.0, 3, rate_trace=True)
        assert np.array_equal(a.F_star, b.F_star)
        assert np.array_equal(a.sum_rate_trace, b.sum_rate_trace)

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
        batch = solve_alternating(stacked, config, 0.7, 3, power=2.0,
                                  sigma2=0.5, rate_trace=True)
        assert batch.columns.shape == (n_trials, 6)
        alone = [solve_alternating(d, config, 0.7, 3, power=2.0, sigma2=0.5,
                                   rate_trace=True) for d in single]
        for t, want in enumerate(alone):
            for name in ("columns", "slots", "heights", "angles", "H_star",
                         "F_star", "objective", "iterations",
                         "matched_filter_columns", "angle_objectives",
                         "height_objectives", "sum_rate_trace"):
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
        angles, diag = optimize_angles(stacked, slots, config, 1.0)
        heights, _ = optimize_heights(stacked, angles, config, 1.0)
        for t, d in enumerate(single):
            want_angles, want_diag = optimize_angles(d, slots[t], config, 1.0)
            assert np.array_equal(angles[t], want_angles[0])
            assert np.array_equal(diag["objective_trace"][t],
                                  want_diag["objective_trace"][0])
            want_heights, _ = optimize_heights(d, angles[t], config, 1.0)
            assert np.array_equal(heights[t], want_heights[0])

    def test_rejects_shared_slot_in_any_trial(self):
        config, _, _ = make_setup()
        stacked = build_joint_dictionary(
            draw_paths(4, 2, [np.random.SeedSequence([t]) for t in range(2)]),
            config)
        with pytest.raises(ValueError):
            optimize_angles(stacked, [[0, 1], [2, 2]], config, 1.0)

    def test_rejects_zero_forcing(self):
        config, _, d = make_setup()
        with pytest.raises(ValueError, match="alpha"):
            solve_alternating(d, config, 0.0, 2)

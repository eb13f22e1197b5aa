import itertools
import math

import numpy as np
import pytest

from fcla.channel import draw_paths, synthesize_channel
from fcla.geometry import FclaConfig, build_grid
from fcla.oracle import enumeration_count, exhaustive_best
from fcla.precoding import rzf, rzf_objective


def make_setup(m=1, n=1, g_h=2, g_v=2, users=3, n_paths=2, seed=0):
    config = FclaConfig.from_grid(m, n, g_h, g_v, d_min=0.05, wavelength=0.1)
    grid = build_grid(config)
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed])])
    return config, grid, paths


def test_count_formula():
    config, grid, _ = make_setup(m=2, n=2, g_h=4, g_v=3)
    assert enumeration_count(grid, 2, 2) == math.comb(3, 2) * math.comb(4, 2) ** 2


def test_single_candidate_grid():
    config, grid, paths = make_setup(m=2, n=2, g_h=2, g_v=2)
    result = exhaustive_best(paths, grid, config, alpha=1.0)
    assert result.count == 1
    assert sorted(result.heights.tolist()) == grid.z.tolist()
    for ring in result.angles:
        assert sorted(ring.tolist()) == grid.psi.tolist()


def test_four_candidates_match_hand_loop():
    config, grid, paths = make_setup(m=1, n=1, g_h=2, g_v=2, seed=4)
    result = exhaustive_best(paths, grid, config, alpha=1.0)
    assert result.count == 4

    best_obj, best_pair = None, None
    for z in grid.z:
        for psi in grid.psi:
            (H,) = synthesize_channel(paths, [(psi, z)], config)
            obj = rzf_objective(H, rzf(H, 1.0), 1.0)
            if best_obj is None or obj < best_obj:
                best_obj, best_pair = obj, (psi, z)
    assert np.isclose(result.objective, best_obj)
    assert result.angles[0][0] == best_pair[0]
    assert result.heights[0] == best_pair[1]


def test_objective_dominates_every_feasible_placement():
    config, grid, paths = make_setup(m=1, n=2, g_h=3, g_v=2, seed=1)
    result = exhaustive_best(paths, grid, config, alpha=0.7)
    for slot in range(grid.g_v):
        for pair in itertools.combinations(range(grid.g_h), 2):
            placement = [(grid.psi[a], grid.z[slot]) for a in pair]
            (H,) = synthesize_channel(paths, placement, config)
            obj = rzf_objective(H, rzf(H, 0.7), 0.7)
            assert obj >= result.objective - 1e-12


def test_sum_rate_criterion_maximizes():
    config, grid, paths = make_setup(m=1, n=1, g_h=3, g_v=2, seed=2)
    by_rate = exhaustive_best(paths, grid, config, alpha=1.0,
                              criterion="sum_rate", power=1.0, sigma2=1.0)
    by_obj = exhaustive_best(paths, grid, config, alpha=1.0)
    assert by_rate.sum_rate >= by_obj.sum_rate - 1e-12


def test_ring_order_invariance():
    # two interchangeable rings: swapping which ring owns which height cannot
    # change the optimum value
    config, grid, paths = make_setup(m=2, n=1, g_h=3, g_v=3, seed=3)
    result = exhaustive_best(paths, grid, config, alpha=1.0)
    swapped_angles = result.angles[::-1]
    swapped_heights = result.heights[::-1]
    placement = [(swapped_angles[m][0], swapped_heights[m]) for m in range(2)]
    (H,) = synthesize_channel(paths, placement, config)
    assert np.isclose(rzf_objective(H, rzf(H, 1.0), 1.0), result.objective)


def test_cap_enforced():
    config, grid, paths = make_setup(m=2, n=2, g_h=4, g_v=4)
    with pytest.raises(ValueError):
        exhaustive_best(paths, grid, config, alpha=1.0, cap=10)


def test_unknown_criterion():
    config, grid, paths = make_setup()
    with pytest.raises(ValueError):
        exhaustive_best(paths, grid, config, alpha=1.0, criterion="entropy")

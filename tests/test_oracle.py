import itertools
import math

import numpy as np
import pytest

from fcla import oracle
from fcla.channel import Dictionary, build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.oracle import exhaustive_best
from fcla.precoding import normalize_columns, rzf, rzf_objective, sinr
from test_channel import channel_entry_oracle


def make_setup(m=1, n=1, g_h=2, g_v=2, users=3, n_paths=2, seed=0, trials=1):
    config = FclaConfig(m, n, g_h, g_v, d_min=0.05, wavelength=0.1)
    paths = draw_paths(users, n_paths, [np.random.SeedSequence([seed, t])
                                        for t in range(trials)])
    return config, paths, build_joint_dictionary(paths, config)


def every_placement(config, m, n):
    """Each feasible placement as (psi, z) pairs, by a loop of its own."""
    for slots in itertools.combinations(range(config.g_v), m):
        for rings in itertools.product(
                itertools.combinations(range(config.g_h), n), repeat=m):
            yield [(config.psi[a], config.z[h]) for h, ring in zip(slots, rings)
                   for a in ring]


def rated(paths, placement, config, alpha, power=1.0, sigma2=1.0):
    """(objective, sum rate) of trial 0 at a placement, on the channel of
    the element-loop oracle."""
    H = np.array([[channel_entry_oracle(paths, k, psi, z, config)
                   for psi, z in placement] for k in range(paths.beta.shape[1])])
    F = rzf(H, alpha)
    return (rzf_objective(H, F, alpha),
            sinr(H, normalize_columns(F, power), sigma2).sum())


def test_count_formula():
    config, _, d = make_setup(m=2, n=2, g_h=4, g_v=3)
    ((result, _),) = exhaustive_best(d, config, alpha=1.0)
    assert result.count == math.comb(3, 2) * math.comb(4, 2) ** 2


def test_single_candidate_grid():
    config, _, d = make_setup(m=2, n=2, g_h=2, g_v=2)
    ((by_objective, by_rate),) = exhaustive_best(d, config, alpha=1.0)
    for result in (by_objective, by_rate):
        assert result.count == 1
        assert sorted(result.heights.tolist()) == config.z.tolist()
        for ring in result.angles:
            assert sorted(ring.tolist()) == config.psi.tolist()


def test_four_candidates_match_hand_loop():
    config, paths, d = make_setup(m=1, n=1, g_h=2, g_v=2, seed=4)
    ((result, _),) = exhaustive_best(d, config, alpha=1.0)
    assert result.count == 4

    best_obj, best_pair = None, None
    for z in config.z:
        for psi in config.psi:
            obj, _ = rated(paths, [(psi, z)], config, 1.0)
            if best_obj is None or obj < best_obj:
                best_obj, best_pair = obj, (psi, z)
    assert np.isclose(result.objective, best_obj)
    assert result.angles[0][0] == best_pair[0]
    assert result.heights[0] == best_pair[1]


def test_objective_dominates_every_feasible_placement():
    config, paths, d = make_setup(m=1, n=2, g_h=3, g_v=2, seed=1)
    ((result, _),) = exhaustive_best(d, config, alpha=0.7)
    for placement in every_placement(config, 1, 2):
        obj, _ = rated(paths, placement, config, 0.7)
        assert obj >= result.objective - 1e-12


def test_sum_rate_criterion_maximizes():
    config, paths, d = make_setup(m=2, n=1, g_h=3, g_v=3, seed=2)
    ((by_objective, by_rate),) = exhaustive_best(d, config, alpha=1.0,
                                                 power=2.0, sigma2=0.5)
    assert by_rate.sum_rate >= by_objective.sum_rate
    rates = [rated(paths, placement, config, 1.0, 2.0, 0.5)[1]
             for placement in every_placement(config, 2, 1)]
    assert len(rates) == by_rate.count
    assert np.isclose(by_rate.sum_rate, max(rates), rtol=1e-12, atol=0.0)


def test_each_trial_matches_its_own_call():
    config, _, d = make_setup(m=2, n=2, g_h=3, g_v=3, users=5, trials=3)
    batch = exhaustive_best(d, config, alpha=0.6, power=2.0)
    for t, pair in enumerate(batch):
        alone = Dictionary(d.rows[t:t + 1], d.psi, d.z, d.group_size,
                           d.radius)
        (want,) = exhaustive_best(alone, config, alpha=0.6, power=2.0)
        for got, expected in zip(pair, want):
            assert np.array_equal(got.heights, expected.heights)
            assert np.array_equal(got.angles, expected.angles)
            assert np.isclose(got.objective, expected.objective, rtol=1e-15)
            assert np.isclose(got.sum_rate, expected.sum_rate, rtol=1e-15)


# one placement per chunk, and chunks of 5 of the 108 placements (2 trials x
# 4 users x 4 antennas x 16 bytes each)
@pytest.mark.parametrize("chunk_bytes", [1, 5 * 512])
def test_chunks_do_not_change_the_optima(chunk_bytes, monkeypatch):
    config, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, users=4, trials=2)
    whole = exhaustive_best(d, config, alpha=0.8)
    monkeypatch.setattr(oracle, "CHUNK_BYTES", chunk_bytes)
    for got, want in zip(exhaustive_best(d, config, alpha=0.8), whole):
        for a, b in zip(got, want):
            assert np.array_equal(a.heights, b.heights)
            assert np.array_equal(a.angles, b.angles)
            assert (a.objective, a.sum_rate) == (b.objective, b.sum_rate)


def test_ties_go_to_the_first_placement():
    # every column equal: every placement rates the same
    config, _, d = make_setup(m=2, n=2, g_h=4, g_v=3, users=3)
    flat = Dictionary(np.ones_like(d.rows), d.psi, d.z, d.group_size,
                      d.radius)
    for result in exhaustive_best(flat, config, alpha=1.0)[0]:
        assert np.array_equal(result.heights, config.z[:2])
        assert np.array_equal(result.angles, np.tile(config.psi[:2], (2, 1)))


def test_unservable_user_has_zero_rate():
    config, _, d = make_setup(m=1, n=2, g_h=3, g_v=2, users=3, seed=5)
    rows = d.rows.copy()
    rows[..., 0] = 0.0  # user 0 has no channel anywhere
    blind = Dictionary(rows, d.psi, d.z, d.group_size, d.radius)
    ((_, by_rate),) = exhaustive_best(blind, config, alpha=1.0)
    served_rows = Dictionary(rows[..., 1:], d.psi, d.z, d.group_size, d.radius)
    ((_, served),) = exhaustive_best(served_rows, config, alpha=1.0)
    assert np.isfinite(by_rate.sum_rate) and by_rate.sum_rate > 0.0
    # the remaining users share power 1 among K = 3 streams, not 2
    assert by_rate.sum_rate < served.sum_rate


def test_ring_order_invariance():
    # two interchangeable rings: swapping which ring owns which height cannot
    # change the optimum value
    config, paths, d = make_setup(m=2, n=1, g_h=3, g_v=3, seed=3)
    ((result, _),) = exhaustive_best(d, config, alpha=1.0)
    swapped_angles = result.angles[::-1]
    swapped_heights = result.heights[::-1]
    placement = [(swapped_angles[m][0], swapped_heights[m]) for m in range(2)]
    obj, _ = rated(paths, placement, config, 1.0)
    assert np.isclose(obj, result.objective)


def test_cap_enforced(monkeypatch):
    config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4)
    monkeypatch.setattr(oracle, "CAP", 10)
    with pytest.raises(ValueError, match="216 placements"):
        exhaustive_best(d, config, alpha=1.0)


def test_grid_too_small_named():
    config, _, d = make_setup(m=2, n=2, g_h=4, g_v=4)
    small = Dictionary(d.rows[:, :4], d.psi[:4], d.z[:4], d.group_size,
                       d.radius)
    with pytest.raises(ValueError, match="cannot host"):
        exhaustive_best(small, config, alpha=1.0)

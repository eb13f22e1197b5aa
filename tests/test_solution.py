"""The solution record's builder: its structural check of a placement on the
grid, the rings' heights and angles it derives from the columns, and the
memory its refit takes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcla.alternating import solve_alternating
from fcla.channel import build_joint_dictionary, draw_paths
from fcla.geometry import FclaConfig
from fcla.harness import ExperimentSpec, draw_batch
from fcla.solution import refit, solutions
from spacing_oracle import check_spacing

# 2 rings of 2 elements on 4 angles x 3 heights: column slot * 4 + angle
CONFIG = FclaConfig(2, 2, 4, 3, d_min=0.05, wavelength=0.1)


def build(columns, slots, config=CONFIG, n_trials=1):
    dictionary = build_joint_dictionary(
        draw_paths(3, 2, list(range(n_trials))), config)
    return solutions(dictionary, np.array(columns), np.array(slots), 1.0)


def test_rings_follow_their_slots_in_column_order():
    record = build([[5, 0, 4, 2]], [[1, 0]])
    psi, z = CONFIG.psi, CONFIG.z
    assert np.array_equal(record.heights, [[z[1], z[0]]])
    assert np.array_equal(record.angles, [[[psi[1], psi[0]], [psi[0], psi[2]]]])
    assert record.iterations.tolist() == [0]
    assert record.picks is None and record.round_columns is None


def test_rejects_a_repeated_column():
    with pytest.raises(ValueError, match="trial 0: column 4 is taken twice"):
        build([[0, 1, 4, 4]], [[0, 1]])


def test_rejects_a_repeated_slot():
    with pytest.raises(ValueError, match="trial 0: height slot 1 is taken twice"):
        build([[4, 5, 6, 7]], [[1, 1]])


def test_rejects_a_column_outside_every_ring():
    # columns 8 and 9 sit at height slot 2, which no ring holds; the rings'
    # heights would not be where the elements are
    with pytest.raises(ValueError, match="trial 0: column 8 lies in height "
                                         "slot 2, which is no ring's"):
        build([[0, 1, 8, 9]], [[0, 1]])


def test_rejects_a_ring_spread_over_two_slots():
    with pytest.raises(ValueError, match="trial 0: height slot 0 holds 3 "
                                         "columns, not 2"):
        build([[0, 1, 2, 4]], [[0, 1]])


def test_names_the_offending_trial():
    with pytest.raises(ValueError, match="trial 1: column 8"):
        build([[0, 1, 4, 5], [0, 1, 8, 9]], [[0, 1], [0, 1]], n_trials=2)


@st.composite
def placements(draw):
    """A small config and a placement of M rings of N grid positions, its
    columns in any order. Half of them may repeat a slot or an angle within
    a ring; the others repeat neither."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    g_h = draw(st.integers(max(2, n), 6))
    g_v = draw(st.integers(m, 4))
    d_min = draw(st.sampled_from([0.01, 0.05, 0.3]))
    config = FclaConfig(m, n, g_h, g_v, d_min=d_min, wavelength=0.1)
    unique = draw(st.booleans())
    slots = draw(st.lists(st.integers(0, g_v - 1), min_size=m, max_size=m,
                          unique=unique))
    angles = draw(st.lists(st.lists(st.integers(0, g_h - 1), min_size=n,
                                    max_size=n, unique=unique),
                           min_size=m, max_size=m))
    columns = [s * g_h + a for s, ring in zip(slots, angles) for a in ring]
    return config, draw(st.permutations(columns)), slots


@settings(max_examples=60)
@given(placements())
def test_structure_implies_physical_spacing(placement):
    config, columns, slots = placement
    try:
        record = build([columns], [slots], config)
    except ValueError:
        return
    # a placement that passes keeps the physical rules at its positions,
    # and its rings hold exactly those positions
    positions = list(zip(config.psi[np.array(columns) % config.g_h],
                         config.z[np.array(columns) // config.g_h]))
    check_spacing(positions, config)
    rings = [(psi, z) for z, ring in zip(record.heights[0], record.angles[0])
             for psi in ring]
    assert sorted(rings) == sorted(positions)


def traced_peak(call):
    """The tracemalloc peak of call(), after a first call whose one-time
    allocations stay out of it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_record_takes_no_more_memory_than_its_refit():
    # fcla-a's placements of 53 reference trials (16 users, 4x4 rings,
    # 12x12 directional grid): the record holds the refit's channel and
    # precoder, and building it may add at most half a channel's bytes
    batch = draw_batch(ExperimentSpec(), 0, range(53))
    d, alpha = batch.dictionary, batch.alpha
    placed = solve_alternating(d, alpha, batch.n_outer)
    columns, slots = placed.columns, placed.slots
    channel = placed.H_star.nbytes  # one (B, K, M*N) complex array
    peak = traced_peak(lambda: solutions(d, columns, slots, alpha))
    assert peak <= traced_peak(lambda: refit(d, columns, alpha)) + channel / 2

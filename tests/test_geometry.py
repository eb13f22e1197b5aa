import math

import numpy as np
import pytest

from fcla.geometry import FclaConfig
from fcla.pattern import PatternSpec
from spacing_oracle import check_spacing, psi_min, ring_angle_distance
from test_channel import position_of


def chord(radius, angle):
    return 2.0 * radius * math.sin(angle / 2.0)


class TestPositionOf:
    """The cartesian position helper of the element-loop channel oracle."""

    def test_axis_points(self):
        assert np.allclose(position_of(0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        assert np.allclose(position_of(np.pi / 2.0, 0.3, 2.0), (0.0, 2.0, 0.3))

    def test_direct_trig(self):
        x, y, z = position_of(np.pi / 3.0, 0.1, 0.5)
        assert np.isclose(x, 0.25)
        assert np.isclose(y, 0.4330127018922193)
        assert z == 0.1


def make_config(**kw):
    base = dict(m_rings=2, n_elements=2, g_h=12, g_v=8, d_min=0.05,
                wavelength=0.1, pattern=PatternSpec.omni())
    base.update(kw)
    return FclaConfig(**base)


class TestBuildGrid:
    """The candidate grid a config describes, and the radius it implies."""

    def test_height_slots(self):
        config = make_config()
        assert config.g_v == 8
        assert np.allclose(config.z, np.arange(8) * 0.05)

    def test_grid_size_override_derives_radius(self):
        config = FclaConfig(m_rings=2, n_elements=2, g_h=12, g_v=8,
                            d_min=0.05, wavelength=0.1)
        # frozen from numerically inverting the chord relation
        assert np.isclose(config.radius, 0.09659258262890683, rtol=1e-12)
        assert (len(config.psi), len(config.z)) == (12, 8)

    def test_override_radius_matches_bisection_oracle(self):
        d_min, g_h = 0.05, 12
        lo, hi = d_min / 2.0, 10.0
        for _ in range(200):  # bisect on chord(2*pi/g_h) == d_min
            mid = 0.5 * (lo + hi)
            if chord(mid, 2.0 * np.pi / g_h) > d_min:
                lo, hi = lo, mid
            else:
                lo, hi = mid, hi
        config = FclaConfig(2, 2, g_h, 4, d_min, 0.1)
        assert np.isclose(config.radius, 0.5 * (lo + hi), rtol=1e-10)

    def test_degenerate_two_slot_ring(self):
        # two angle slots put d_min across the diameter, at half a turn
        config = make_config(m_rings=1, n_elements=2, g_h=2, g_v=1)
        assert config.radius == 0.025
        assert config.psi.tolist() == [0.0, np.pi]
        assert psi_min(config) == np.pi

    def test_angle_step_at_least_min_angle(self):
        for g_h in (2, 3, 7, 12, 64):
            config = FclaConfig(1, 2, g_h, 2, 0.05, 0.1)
            step = 2.0 * np.pi / g_h
            assert step >= psi_min(config) - 1e-12
            gaps = np.diff(np.append(config.psi, 2.0 * np.pi))
            assert np.all(gaps >= psi_min(config) - 1e-12)

    def test_rejects_too_few_slots(self):
        with pytest.raises(ValueError, match="g_v"):
            make_config(m_rings=9)  # only 8 height slots
        with pytest.raises(ValueError, match="g_h"):
            FclaConfig(1, 4, g_h=3, g_v=2, d_min=0.05, wavelength=0.1)

    def test_rejects_nonpositive_spacing(self):
        for d_min in (0.0, -0.05):
            with pytest.raises(ValueError, match="d_min"):
                make_config(d_min=d_min)

    def test_deterministic(self):
        config = make_config()
        assert np.array_equal(config.psi, make_config().psi)
        assert np.array_equal(config.z, make_config().z)


class TestSpacingInvariants:
    @pytest.mark.parametrize("g_h", [2, 4, 11, 32, 64])
    def test_all_ring_pairs_at_least_d_min_apart(self, g_h):
        config = FclaConfig(1, 2, g_h, 2, 0.05, 0.1)
        pts = [position_of(psi, 0.0, config.radius) for psi in config.psi]
        for i in range(g_h):
            for j in range(i + 1, g_h):
                d = math.dist(pts[i], pts[j])
                assert d >= config.d_min - 1e-9

    def test_height_pairs_at_least_d_min_apart(self):
        z = make_config().z
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                assert abs(z[i] - z[j]) >= 0.05 - 1e-12

    def test_checker_accepts_grid_points(self):
        config = make_config()
        psi, z = config.psi, config.z
        placement = [(psi[0], z[0]), (psi[3], z[0]), (psi[1], z[2])]
        check_spacing(placement, config)

    def test_checker_rejects_close_angles(self):
        config = make_config()
        with pytest.raises(ValueError):
            check_spacing([(0.0, 0.0), (psi_min(config) / 2.0, 0.0)], config)

    def test_checker_rejects_close_heights(self):
        config = make_config()
        with pytest.raises(ValueError):
            check_spacing([(0.0, 0.0), (1.0, 0.02)], config)

    def test_checker_uses_circular_distance(self):
        config = make_config()
        # 0 and 2*pi - eps are the same direction, not far apart
        with pytest.raises(ValueError):
            check_spacing([(0.0, 0.0), (2.0 * np.pi - 0.01, 0.0)], config)


def first_violation(placement, config, tol=1e-9):
    """The pair check_spacing must name, by plain pairwise loops: the first
    too-close pair of ascending distinct heights, else the first too-close
    pair of angles ring by ring from the lowest, in placement order."""
    heights = sorted({z for _, z in placement})
    for i in range(len(heights)):
        for j in range(i + 1, len(heights)):
            if abs(heights[i] - heights[j]) < config.d_min - tol:
                return heights[i], heights[j]
    for h in heights:
        ring = [psi for psi, z in placement if z == h]
        for i in range(len(ring)):
            for j in range(i + 1, len(ring)):
                d = abs(ring[i] - ring[j]) % (2.0 * np.pi)
                if min(d, 2.0 * np.pi - d) < psi_min(config) - tol:
                    return ring[i], ring[j]
    return None


def test_checker_matches_pairwise_loop():
    # gaps at the floor, just inside it (1e-6 relative, far beyond the
    # 1e-9 slack), just outside it, or well clear, around the full circle
    config = make_config()
    rng = np.random.default_rng(11)
    jitter = np.array([-1e-6, 0.0, 1e-6, 0.4])
    rejected = 0
    for _ in range(300):
        gaps = config.d_min * (1.0 + rng.choice(jitter, size=rng.integers(0, 3)))
        heights = np.concatenate([[0.0], np.cumsum(gaps)])
        placement = []
        for h in heights:
            steps = psi_min(config) * (1.0 + rng.choice(jitter,
                                                       size=rng.integers(0, 4)))
            start = rng.uniform(0.0, 2.0 * np.pi)
            angles = np.mod(start + np.concatenate([[0.0], np.cumsum(steps)]),
                            2.0 * np.pi)
            placement += [(float(a), float(h)) for a in angles]
        placement = [placement[i] for i in rng.permutation(len(placement))]
        pair = first_violation(placement, config)
        if pair is None:
            check_spacing(placement, config)
            continue
        rejected += 1
        with pytest.raises(ValueError) as info:
            check_spacing(placement, config)
        assert f"{pair[0]} and {pair[1]}" in str(info.value)
    assert 50 < rejected < 250


def test_ring_angle_distance_wraps():
    assert np.isclose(ring_angle_distance(0.1, 2.0 * np.pi - 0.1), 0.2)
    assert np.isclose(ring_angle_distance(0.0, np.pi), np.pi)

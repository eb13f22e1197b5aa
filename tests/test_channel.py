import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given

from fcla import channel
from fcla.channel import (Dictionary, Paths, build_joint_dictionary,
                          draw_paths, export_paths)
from fcla.geometry import FclaConfig
from fcla.harness import ucla_baseline, ucla_config
from fcla.pattern import PatternSpec, power_gain
from fcla.solution import refit
from test_properties import instances


def make_config(pattern=None, **kw):
    base = dict(m_rings=2, n_elements=2, g_h=12, g_v=8, d_min=0.05,
                wavelength=0.1,
                pattern=pattern or PatternSpec.omni())
    base.update(kw)
    return FclaConfig(**base)


def position_of(psi, z, radius):
    """Cartesian (x, y, z) of an element at ring angle psi and height z."""
    return (radius * np.cos(psi), radius * np.sin(psi), z)


def amplitude(spec, theta, phi, psi):
    """Field amplitude seen from direction (theta, phi) by an element
    oriented at psi."""
    return np.sqrt(power_gain(spec, theta, np.asarray(phi) - np.asarray(psi)))


def one_path(beta, theta_el, phi_az):
    """One trial of one user with a single path."""
    return Paths(np.full((1, 1, 1), beta, dtype=complex),
                 np.full((1, 1, 1), theta_el), np.full((1, 1, 1), phi_az))


def channel_entry_oracle(paths, k, psi, z, config, trial=0):
    """Element-by-element physical channel entry of user k of a trial, then
    conjugated.

    Independent of the vectorized kernel: walks the paths in a scalar loop,
    uses cartesian positions, and applies the pattern through amplitude().
    """
    x, y, zz = position_of(psi, z, config.radius)
    beta, theta_el, phi_az = (paths.beta[trial, k], paths.theta_el[trial, k],
                              paths.phi_az[trial, k])
    total = 0.0 + 0.0j
    for l in range(len(beta)):
        theta = theta_el[l]
        phi = phi_az[l]
        direction = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta))
        phase = (2.0 * np.pi / config.wavelength) * (
            x * direction[0] + y * direction[1] + zz * direction[2])
        amp = amplitude(config.pattern, theta, phi, psi)
        total += beta[l] * amp * np.exp(1j * phase)
    return np.conj(total / np.sqrt(len(beta)))


def apm_entry(paths, k, psi, z, config):
    """User k's response (trial 0) at one position, anywhere on or off the
    grid: the dictionary's response kernel on one angle and one height."""
    row = np.empty((1, 1, 1, paths.beta.shape[1]), dtype=complex)
    channel._responses(paths, np.array([psi]), np.array([z]), config, row)
    return np.conj(row[0, 0, 0, k])


class TestDrawPaths:
    def test_shapes_and_ranges(self):
        paths = draw_paths(16, 4, [123, 124])
        assert len(paths) == 2
        for values in (paths.beta, paths.theta_el, paths.phi_az):
            assert values.shape == (2, 16, 4)
        assert np.all(paths.theta_el >= np.pi / 6.0)
        assert np.all(paths.theta_el <= 5.0 * np.pi / 6.0)
        assert np.all(paths.phi_az >= 0.0)
        assert np.all(paths.phi_az < 2.0 * np.pi)

    def test_deterministic(self):
        a = draw_paths(4, 3, [7])
        b = draw_paths(4, 3, [7])
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.theta_el, b.theta_el)
        assert np.array_equal(a.phi_az, b.phi_az)

    def test_trial_draw_independent_of_batch(self):
        seeds = [np.random.SeedSequence([5, 0, t]) for t in range(3)]
        batch = draw_paths(4, 3, seeds)
        for t, seed in enumerate(seeds):
            alone = draw_paths(4, 3, [seed])
            assert np.array_equal(batch.beta[t], alone.beta[0])
            assert np.array_equal(batch.theta_el[t], alone.theta_el[0])
            assert np.array_equal(batch.phi_az[t], alone.phi_az[0])

    def test_gain_moments(self):
        # 1e5 gains in one draw; |beta|^2 is unit-mean, unit-variance
        power = np.abs(draw_paths(1000, 100, [99]).beta) ** 2
        assert abs(power.mean() - 1.0) < 0.05
        assert abs(power.var() - 1.0) < 0.05

    def test_virtual_angle_identity(self):
        paths = draw_paths(8, 4, [5])
        sin_el = np.sin(paths.theta_el)
        radial = ((sin_el * np.cos(paths.phi_az)) ** 2
                  + (sin_el * np.sin(paths.phi_az)) ** 2
                  + np.cos(paths.theta_el) ** 2)
        assert np.allclose(radial, 1.0, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            draw_paths(0, 4, [1])
        with pytest.raises(ValueError):
            draw_paths(4, 0, [1])
        with pytest.raises(ValueError):
            draw_paths(4, 4, [])


class TestApmEntry:
    def test_zenith_path_has_unit_response_at_origin(self):
        ps = one_path(1.0, theta_el=0.0, phi_az=0.0)
        value = apm_entry(ps, 0, psi=1.2, z=0.0, config=make_config())
        assert np.isclose(value, 1.0)

    def test_horizon_path_pure_phase(self):
        config = make_config()
        ps = one_path(1.0, theta_el=np.pi / 2.0, phi_az=0.0)
        value = apm_entry(ps, 0, psi=0.0, z=0.37, config=config)
        expected = np.exp(-2j * np.pi * config.radius / config.wavelength)
        assert np.isclose(value, expected, atol=1e-14)

    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(1.0),
                                         PatternSpec.directional(2.5)])
    def test_matches_element_loop_oracle(self, pattern):
        config = make_config(pattern=pattern)
        rng = np.random.default_rng(42)
        paths = draw_paths(6, 4, [42])
        for k in range(3):
            psi = rng.uniform(0.0, 2.0 * np.pi)
            z = rng.uniform(0.0, 0.4)
            got = apm_entry(paths, k, psi, z, config)
            want = channel_entry_oracle(paths, k, psi, z, config)
            assert np.isclose(got, want, atol=1e-12)

    def test_unit_modulus_with_single_unit_path(self):
        config = make_config()
        ps = one_path(np.exp(0.7j), theta_el=1.1, phi_az=2.2)
        for psi, z in [(0.0, 0.0), (1.0, 0.2), (4.0, 0.35)]:
            assert np.isclose(abs(apm_entry(ps, 0, psi, z, config)), 1.0)


class TestSynthesizeChannel:
    """The channel at a placement: the dictionary's columns gathered at the
    placement's grid positions (`fcla.solution.refit`)."""

    def test_single_antenna(self):
        config = make_config()
        paths = draw_paths(3, 2, [0])
        d = build_joint_dictionary(paths, config)
        column = 2 * config.g_h + 5
        H, _ = refit(d, np.array([[column]]), 1.0)
        assert H.shape == (1, 3, 1)
        for k in range(3):
            assert np.isclose(H[0, k, 0],
                              channel_entry_oracle(paths, k, d.psi[column],
                                                   d.z[column], config),
                              atol=1e-12)

    def test_column_permutation(self):
        config = make_config()
        d = build_joint_dictionary(draw_paths(3, 2, [1, 2]), config)
        columns = np.array([[0, 14, 40], [7, 3, 60]])
        H, _ = refit(d, columns, 1.0)
        H_rev, _ = refit(d, columns[:, ::-1], 1.0)
        assert np.array_equal(H[..., ::-1], H_rev)

    def test_matches_bruteforce_oracle(self):
        config = make_config(pattern=PatternSpec.directional(1.0))
        paths = draw_paths(2, 3, [11, 12])
        d = build_joint_dictionary(paths, config)
        columns = np.array([[1 * config.g_h + 3, 6 * config.g_h + 9],
                            [0, 7 * config.g_h + 11]])
        H, _ = refit(d, columns, 1.0)
        for t in range(2):
            for k in range(2):
                for j, c in enumerate(columns[t]):
                    want = channel_entry_oracle(paths, k, d.psi[c], d.z[c],
                                                config, trial=t)
                    assert np.isclose(H[t, k, j], want, atol=1e-12)


class TestDictionaries:
    def setup_method(self):
        self.config = make_config(pattern=PatternSpec.directional(1.0))
        self.paths = draw_paths(4, 3, [17, 18])

    def test_joint_layout_and_values(self):
        d = build_joint_dictionary(self.paths, self.config)
        g_h, g_v = self.config.g_h, self.config.g_v
        assert d.rows.shape == (2, g_h * g_v, 4)
        assert d.config is self.config
        # each column's position, height-major
        assert np.array_equal(d.psi, np.tile(self.config.psi, g_v))
        assert np.array_equal(d.z, np.repeat(self.config.z, g_h))
        with pytest.raises(ValueError, match=f"do not fill the {g_h}x{g_v}"):
            Dictionary(d.rows[:, :-g_h], self.config)
        for col in [0, 1, g_h, g_h * g_v - 1]:
            psi, z = d.psi[col], d.z[col]
            assert psi == self.config.psi[col % g_h]
            assert z == self.config.z[col // g_h]
            for t in range(2):
                oracle = [channel_entry_oracle(self.paths, k, psi, z,
                                               self.config, trial=t)
                          for k in range(4)]
                assert np.allclose(np.conj(d.rows[t, col]), oracle,
                                   atol=1e-12)

    @pytest.mark.parametrize("pattern", [PatternSpec.omni(),
                                         PatternSpec.directional(2.0)])
    def test_rows_are_contiguous_conjugated_oracle(self, pattern):
        # the solvers read rows (B, G, K) in place: row g of trial t holds
        # the conjugated entries of column g, one per user
        config = make_config(pattern=pattern, g_h=5, g_v=3)
        d = build_joint_dictionary(self.paths, config)
        assert d.rows.shape == (2, 15, 4) and d.rows.flags.c_contiguous
        want = [[[np.conj(channel_entry_oracle(self.paths, k, d.psi[g], d.z[g],
                                               config, trial=t))
                  for k in range(4)] for g in range(15)] for t in range(2)]
        assert np.allclose(d.rows, want, rtol=0.0, atol=1e-12)

    def test_index_map_round_trip(self):
        # the solvers address column slot * g_h + angle
        d = build_joint_dictionary(self.paths, self.config)
        g_h = self.config.g_h
        for slot in range(self.config.g_v):
            for angle in range(g_h):
                col = slot * g_h + angle
                assert (d.psi[col], d.z[col]) == (self.config.psi[angle],
                                                  self.config.z[slot])

    def test_channel_equals_dictionary_gather(self):
        # each trial's channel holds that trial's own columns, bit for bit
        d = build_joint_dictionary(self.paths, self.config)
        cols = np.array([[0, 5, self.config.g_h * 2 + 3], [9, 1, 30]])
        H, _ = refit(d, cols, 1.0)
        for t in range(2):
            assert np.array_equal(H[t], np.conj(d.rows[t, cols[t]]).T)
        assert H.flags.c_contiguous

    @pytest.mark.parametrize("n_trials", [1, 3])
    def test_take_equals_take_along_axis(self, n_trials):
        # unsorted and repeated columns, per trial, bit for bit
        config = make_config(g_h=5, g_v=4)
        d = build_joint_dictionary(draw_paths(4, 3, range(n_trials)), config)
        rng = np.random.default_rng(n_trials)
        index = rng.integers(0, 20, size=(n_trials, 9))
        index[:, 4:7] = [[17, 2, 17]]
        got = d.take(index)
        want = np.take_along_axis(d.rows, index[..., None], axis=1)
        assert got.shape == (n_trials, 9, 4)
        assert np.array_equal(got, want)


def test_export_paths_records(tmp_path):
    paths = draw_paths(3, 2, [8])
    export_paths(paths, tmp_path / "paths.json")
    records = json.loads((tmp_path / "paths.json").read_text())
    assert len(records) == 6
    first = records[0]
    assert set(first) == {"user", "path", "beta_re", "beta_im", "theta_el",
                          "phi_az"}
    assert first["beta_re"] + 1j * first["beta_im"] == paths.beta[0, 0, 0]
    assert [(r["user"], r["path"]) for r in records] == [
        (k, l) for k in range(3) for l in range(2)]
    assert records[3]["phi_az"] == paths.phi_az[0, 1, 1]
    with pytest.raises(ValueError):
        export_paths(draw_paths(3, 2, [8, 9]), tmp_path / "two.json")


def einsum_rows(paths, config):
    """The rows (B, G_V, G_H, K) of config's grid as the builder formed them
    with one einsum: the same angle and height factors, contracted over the
    paths, then divided by sqrt(L). The oracle of the builder's matrix
    product, which rounds otherwise."""
    psi, z = config.psi, config.z
    wave = 2.0 * np.pi / config.wavelength
    theta = paths.theta_el[..., None]
    phi = paths.phi_az[..., None]
    sin_el = np.sin(theta)
    ring = (sin_el * np.cos(phi) * np.cos(psi)
            + sin_el * np.sin(phi) * np.sin(psi))
    angle = paths.beta[..., None] * np.exp(1j * (wave * config.radius) * ring)
    if config.pattern.is_directional:
        angle *= np.sqrt(power_gain(config.pattern, theta, phi - psi))
    height = np.exp(1j * wave * np.cos(theta) * z)
    rows = np.einsum("bklv,bkla->bvak", height, angle)
    return rows / np.sqrt(paths.beta.shape[-1])


# the largest entry's gap from the einsum oracle, relative to the largest
# entry: the two round a sum of L products differently (2.9e-16 seen)
CONTRACTION_RTOL = 1e-15


def relative_gap(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


@given(instances(max_trials=3))
def test_rows_are_the_einsum_contraction(instance):
    config, paths = instance
    rows = build_joint_dictionary(paths, config).rows
    expected = einsum_rows(paths, config).reshape(rows.shape)
    assert relative_gap(rows, expected) <= CONTRACTION_RTOL


@given(instances(max_trials=3))
def test_one_element_baseline_is_its_uniform_grid(instance):
    # a one-element ring's uniform grid keeps the flexible grid's angles,
    # and ring m's one element sits at angle 0 of height slot m
    config, paths = instance
    single = dataclasses.replace(config, n_elements=1)
    record = ucla_baseline(paths, single, 1.0)
    grid = einsum_rows(paths, ucla_config(single))  # (B, M, G_H, K)
    expected = np.conj(grid[:, :, 0]).swapaxes(1, 2)
    assert relative_gap(record.H_star, expected) <= CONTRACTION_RTOL

import numpy as np
import pytest

from fcla.pattern import PatternSpec, power_gain


def test_gain_is_periodic_in_relative_azimuth():
    theta = np.linspace(0.1, np.pi - 0.1, 7)[:, None]
    phi = np.linspace(-np.pi, np.pi, 41)[None, :]
    for kappa in (1.0, 2.5):
        spec = PatternSpec.directional(kappa)
        want = power_gain(spec, theta, phi)
        for k in range(-2, 3):
            got = power_gain(spec, theta, phi + 2.0 * np.pi * k)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_boresight_gain_is_normalization_factor():
    spec = PatternSpec.directional(1.0)
    assert np.isclose(power_gain(spec, np.pi / 2.0, 0.0), 4.0)


def test_back_halfspace_is_dark():
    spec = PatternSpec.directional(1.0)
    assert power_gain(spec, np.pi / 2.0, np.pi) == 0.0
    assert power_gain(spec, np.pi / 3.0, 0.6 * np.pi) == 0.0


def test_omni_is_unity_everywhere():
    spec = PatternSpec.omni()
    theta = np.linspace(0.0, np.pi, 7)
    phi = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 11)
    assert np.all(power_gain(spec, theta[:, None], phi[None, :]) == 1.0)
    assert np.sqrt(power_gain(spec, 0.3, 1.0 - 2.0)) == 1.0


def test_amplitude_is_root_of_power():
    spec = PatternSpec.directional(1.0)
    assert np.isclose(np.sqrt(power_gain(spec, np.pi / 2.0, 1.3 - 1.3)), 2.0)
    # relative azimuth pi/3: sqrt(4 * cos(pi/3)) = sqrt(2)
    assert np.isclose(np.sqrt(power_gain(spec, np.pi / 2.0, np.pi / 3.0)),
                      np.sqrt(2.0))


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
def test_power_integrates_to_full_sphere(kappa):
    """Independent trapezoid quadrature of the radiated power over the sphere."""
    spec = PatternSpec.directional(kappa)
    theta = np.linspace(0.0, np.pi, 2001)
    phi = np.linspace(-np.pi / 2.0, np.pi / 2.0, 2001)
    integrand = (power_gain(spec, theta[:, None], phi[None, :])
                 * np.sin(theta)[:, None])
    total = np.trapezoid(np.trapezoid(integrand, phi, axis=1), theta)
    assert abs(total - 4.0 * np.pi) / (4.0 * np.pi) < 1e-3


def test_amplitude_even_and_nonincreasing_off_boresight():
    spec = PatternSpec.directional(2.0)
    theta = 0.4 * np.pi
    offsets = np.linspace(0.0, np.pi / 2.0, 50)
    forward = np.sqrt(power_gain(spec, theta, offsets))
    backward = np.sqrt(power_gain(spec, theta, -offsets))
    assert np.allclose(forward, backward, atol=1e-14)
    assert np.all(np.diff(forward) <= 1e-14)


def test_sharper_patterns_concentrate_power():
    gains = [power_gain(PatternSpec.directional(k), np.pi / 2.0, 0.0)
             for k in (1.0, 1.5, 2.0, 3.0, 5.0)]
    assert np.allclose(gains, [2.0 * (k + 1.0) for k in (1.0, 1.5, 2.0, 3.0, 5.0)])
    assert np.all(np.diff(gains) > 0)


def test_sharpness_below_one_rejected():
    with pytest.raises(ValueError):
        PatternSpec.directional(0.5)
    with pytest.raises(ValueError):
        PatternSpec("sideways")

import numpy as np
import pytest

import cdma_ee as ce


def test_ring_geometry_validation():
    with pytest.raises(ce.ConfigurationError):
        ce.RingGeometry(0.0, 200.0)
    with pytest.raises(ce.ConfigurationError):
        ce.RingGeometry(200.0, 50.0)
    with pytest.raises(ce.ConfigurationError):
        ce.draw_placement(ce.RingGeometry(50.0, 200.0), 0)


def test_ring_single_draw_within_bounds():
    for seed in range(20):
        distances = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 1, seed)
        assert 50.0 <= distances[0] <= 200.0


def test_ring_mean_distance_matches_uniform_law():
    # mean of U[50, 200] is 125 m; sigma of the sample mean from the uniform
    # variance (150/sqrt(12)) over 10^4 draws
    distances = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 10_000, 20260810)
    sigma_mean = (150.0 / np.sqrt(12.0)) / np.sqrt(10_000)
    assert abs(distances.mean() - 125.0) < 3.0 * sigma_mean


def test_placement_determinism():
    a = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 64, 7)
    b = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 64, 7)
    c = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 64, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_loss_without_fading():
    channel = ce.draw_channel(np.array([50.0]), 2.0, "none")
    assert channel.gain_power[0] == pytest.approx(4e-4, rel=1e-12)


def test_path_loss_ratio_without_fading():
    channel = ce.draw_channel(np.array([50.0, 200.0]), 2.0, "none")
    assert channel.gain_power[0] / channel.gain_power[1] == pytest.approx(16.0, rel=1e-12)


def test_gain_power_matches_gains_exactly():
    distances = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 32, 3)
    channel = ce.draw_channel(distances, 2.0, "rayleigh", 4)
    expected = channel.gains.real**2 + channel.gains.imag**2
    assert np.array_equal(channel.gain_power, expected)
    assert np.all(channel.gain_power > 0.0)


def test_path_loss_monotonicity_without_fading():
    rng = np.random.default_rng(11)
    distances = np.sort(rng.uniform(10.0, 500.0, size=16))
    channel = ce.draw_channel(distances, 2.0, "none")
    assert np.all(np.diff(channel.gain_power) < 0.0)


def test_rayleigh_mean_gain_power():
    # E|g|^2 = 1, so the Monte Carlo mean of |h|^2 at 50 m approaches 4e-4
    channel = ce.draw_channel(np.full(5000, 50.0), 2.0, "rayleigh", 123)
    assert abs(channel.gain_power.mean() - 4e-4) / 4e-4 < 0.05


def test_draw_channel_on_draws_by_users_matches_successive_draws():
    distances = np.array([50.0, 80.0, 200.0])
    batch = ce.draw_channel(np.broadcast_to(distances, (7, 3)), 2.0, "rayleigh", 13)
    gen = np.random.default_rng(13)
    rows = [ce.draw_channel(distances, 2.0, "rayleigh", gen) for _ in range(7)]
    assert np.array_equal(batch.gains, np.stack([row.gains for row in rows]))
    assert np.array_equal(batch.gain_power, np.stack([row.gain_power for row in rows]))


def test_channel_determinism_and_fading_validation():
    distances = ce.draw_placement(ce.RingGeometry(50.0, 200.0), 8, 5)
    a = ce.draw_channel(distances, 2.0, "rayleigh", 9)
    b = ce.draw_channel(distances, 2.0, "rayleigh", 9)
    assert np.array_equal(a.gains, b.gains)
    with pytest.raises(ce.ConfigurationError):
        ce.draw_channel(distances, 2.0, "shadowed")
    with pytest.raises(ce.ConfigurationError):
        ce.draw_channel(distances, 0.0, "none")

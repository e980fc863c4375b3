import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee import tradeoff
from cdma_ee.tradeoff import TradeoffCurve

from conftest import best_response_power, gamma_star


def fig_distances(distance, users=3):
    return (50.0, *(distance,) * (users - 1))


def reference_sweep(distances, codes, params, receiver, interferer_power, draws, rng, points=400):
    """Per-draw loop: one (K,) fading draw and one row of grid values per draw."""
    users = len(distances)
    grid = ce.default_sweep_grid(params.max_power, points)
    gain_power = np.stack(
        [ce.draw_channel(distances, 2.0, "rayleigh", rng).gain_power for _ in range(draws)]
    )
    if receiver == "mf":
        power = np.broadcast_to([0.0] + [interferer_power] * (users - 1), gain_power.shape)
        weights = np.broadcast_to(ce.mf_mai_weights(codes.correlation), (draws, users, users))
        _, eff_itf = ce.mf_sinr(power, gain_power, weights, params.noise_power)
    else:
        eff_itf = ce.dec_eff_interference(
            gain_power, codes.correlation, np.ones(users, dtype=bool), params.noise_power
        )
    gap = params.gap()
    se_sum, ee_sum, sinr_sum = np.zeros(grid.size), np.zeros(grid.size), np.zeros(grid.size)
    interest_sum = interferer_sum = 0.0
    for h2, itf in zip(gain_power, eff_itf[:, 0]):
        interest_sum += h2[0]
        if users > 1:
            interferer_sum += float(np.mean(h2[1:]))
        sinr = grid / itf
        se_sum += ce.rate(sinr, gap, 1.0)
        ee_sum += ce.utility(grid, sinr, params, gap)
        sinr_sum += sinr
    coupling = (interest_sum / draws) / (interferer_sum / draws) if users > 1 else np.nan
    return se_sum / draws, ee_sum / draws, sinr_sum / draws, coupling


@pytest.mark.parametrize("users", [1, 3, 12])
@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_sweep_matches_per_draw_reference_loop(fig_params, receiver, users):
    # 137 draws do not fill a whole number of blocks at the 400-point grid
    codes = ce.generate_codes(15, users, 5)
    distances = fig_distances(80.0, users)
    [curve] = ce.sweep_tradeoff(
        [distances], codes, fig_params, receiver, 1e-2, fading_draws=137,
        rng=np.random.default_rng(21),
    )
    se, ee, sinr, coupling = reference_sweep(
        distances, codes, fig_params, receiver, 1e-2, 137, np.random.default_rng(21)
    )
    assert np.array_equal(curve.se, se)
    assert np.array_equal(curve.ee, ee)
    assert np.array_equal(curve.sinr, sinr)
    assert np.array_equal(curve.coupling, coupling, equal_nan=True)


@pytest.mark.parametrize("points", [7, 400])
@pytest.mark.parametrize("block_rows", [None, 50, 1000], ids=["one_value", "short_last", "whole"])
@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_sweep_matches_reference_at_any_block_size(fig_params, monkeypatch, receiver, block_rows,
                                                   points):
    # One value per block runs one draw per block; 50 rows leave 37 of the 137 draws to a
    # short last block; 1000 rows exceed the draws, so the buffers are cut to one block.
    monkeypatch.setattr(tradeoff, "BLOCK_VALUES", 1 if block_rows is None else block_rows * points)
    codes = ce.generate_codes(15, 3, 5)
    distances = fig_distances(80.0)
    [curve] = ce.sweep_tradeoff(
        [distances], codes, fig_params, receiver, 1e-2, sweep_points=points, fading_draws=137,
        rng=np.random.default_rng(21),
    )
    se, ee, sinr, _ = reference_sweep(
        distances, codes, fig_params, receiver, 1e-2, 137, np.random.default_rng(21), points
    )
    assert np.array_equal(curve.se, se)
    assert np.array_equal(curve.ee, ee)
    assert np.array_equal(curve.sinr, sinr)


def test_curves_share_draws_and_dec_curves_are_averaged_once(fig_params):
    codes = ce.generate_codes(15, 3, 5)
    rows = [fig_distances(d) for d in (200.0, 100.0, 80.0)]
    arrays = ("powers", "se", "ee", "sinr")
    dec = ce.sweep_tradeoff(rows, codes, fig_params, "dec", 1e-2, fading_draws=300, rng=4)
    mf = ce.sweep_tradeoff(rows, codes, fig_params, "mf", 1e-2, fading_draws=300, rng=4)
    for i, curve in enumerate(dec):
        for name in arrays:
            assert getattr(curve, name).tobytes() == getattr(dec[0], name).tobytes()
        # a curve's arrays are its own, even where the DEC curves were averaged once
        for other in dec[i + 1 :]:
            assert not any(np.shares_memory(getattr(curve, n), getattr(other, n)) for n in arrays)
    assert len({curve.coupling for curve in dec}) == 3
    for i, curve in enumerate(mf):
        # each curve is the one that a call with its row alone makes on the same seed
        [alone] = ce.sweep_tradeoff(
            [rows[i]], codes, fig_params, "mf", 1e-2, fading_draws=300, rng=4
        )
        for name in arrays:
            assert getattr(curve, name).tobytes() == getattr(alone, name).tobytes()
        assert curve.coupling == alone.coupling == dec[i].coupling
        assert not any(np.array_equal(curve.ee, other.ee) for other in mf[i + 1 :])


def test_sweep_grid_validation(fig_params):
    codes = ce.generate_codes(15, 3, 0)
    distances = fig_distances(200.0)
    with pytest.raises(ce.ConfigurationError, match="sweep_points"):
        ce.sweep_tradeoff([distances], codes, fig_params, "mf", 1e-2, sweep_points=0)
    with pytest.raises(ce.ConfigurationError):
        ce.sweep_tradeoff([distances], codes, fig_params, "zf", 1e-2)
    with pytest.raises(ce.ConfigurationError, match="one row per curve"):
        ce.sweep_tradeoff(distances, codes, fig_params, "mf", 1e-2)


def test_dec_curve_ignores_interferer_powers(fig_params):
    codes = ce.generate_codes(15, 3, 1)
    distances = fig_distances(100.0)
    [a] = ce.sweep_tradeoff([distances], codes, fig_params, "dec", 1e-2, fading="none")
    [b] = ce.sweep_tradeoff([distances], codes, fig_params, "dec", 1e-9, fading="none")
    assert np.array_equal(a.ee, b.ee)
    assert np.array_equal(a.se, b.se)


def test_curve_shape_flags_and_cross_module_consistency(fig_params):
    codes = ce.generate_codes(15, 3, 42)
    distances = fig_distances(200.0)
    [curve] = ce.sweep_tradeoff([distances], codes, fig_params, "mf", 1e-2, fading="none")
    assert curve.se_monotone
    assert curve.ee_unimodal
    assert curve.lambda_gap >= 0.0
    # the EE peak on the grid agrees with the stationarity solver through the
    # best-response map, within one grid step
    channel = ce.draw_channel(distances, 2.0, "none")
    _, eff_interference = ce.mf_sinr(
        np.array([[0.0, 1e-2, 1e-2]]),
        channel.gain_power[None],
        ce.mf_mai_weights(codes.correlation)[None],
        fig_params.noise_power,
    )
    itf = eff_interference[0, 0]
    star = gamma_star(itf, fig_params)
    response = best_response_power(star, itf, fig_params.max_power)
    step = curve.powers[1] / curve.powers[0]
    assert curve.max_ee_power / response.power < step
    assert response.power / curve.max_ee_power < step


def test_mf_lambda_gap_shrinks_with_interference(fig_params):
    codes = ce.generate_codes(15, 3, 42)
    distances = (200.0, 100.0, 80.0)
    curves = ce.sweep_tradeoff(
        [fig_distances(distance) for distance in distances],
        codes,
        fig_params,
        "mf",
        fig_params.max_power,
        fading="rayleigh",
        fading_draws=400,
        rng=np.random.default_rng(7),
    )
    gaps = {distance: curve.lambda_gap for distance, curve in zip(distances, curves)}
    assert gaps[80.0] < gaps[100.0] < gaps[200.0]


def test_zero_circuit_power_peak_sinr_invariant(no_circuit_params):
    # with no circuit power the EE-optimal SINR does not depend on the
    # interference level; resolved on a fine grid without fading noise
    codes = ce.generate_codes(15, 3, 42)
    curves = ce.sweep_tradeoff(
        [fig_distances(distance) for distance in (200.0, 100.0, 80.0)],
        codes,
        no_circuit_params,
        "mf",
        no_circuit_params.max_power,
        sweep_points=400_000,
        fading="none",
    )
    peaks = [curve.max_ee_sinr for curve in curves]
    spread = (max(peaks) - min(peaks)) / min(peaks)
    assert spread < 1e-4


def test_coupling_reported_with_reciprocal(fig_params):
    codes = ce.generate_codes(15, 3, 3)
    [curve] = ce.sweep_tradeoff(
        [fig_distances(200.0)], codes, fig_params, "mf", 1e-2, fading="none"
    )
    assert curve.coupling == pytest.approx(16.0, rel=1e-9)
    assert curve.coupling_reciprocal == pytest.approx(1.0 / 16.0, rel=1e-9)


def test_gap_lambda_synthetic_curve():
    powers = np.geomspace(1e-6, 1e-2, 64)
    se = np.linspace(1.0, 4.0, 64)
    ee = -((np.arange(64) - 20.0) ** 2)
    curve = TradeoffCurve(
        powers=powers,
        se=se,
        ee=ee,
        sinr=np.ones(64),
        max_ee_index=int(np.argmax(ee)),
        receiver="mf",
        fading_draws=1,
        se_monotone=True,
        ee_unimodal=True,
        coupling=1.0,
    )
    assert curve.lambda_gap == pytest.approx(se[-1] - se[20])
    peaked_at_top = TradeoffCurve(
        powers=powers,
        se=se,
        ee=np.arange(64.0),
        sinr=np.ones(64),
        max_ee_index=63,
        receiver="mf",
        fading_draws=1,
        se_monotone=True,
        ee_unimodal=True,
        coupling=1.0,
    )
    assert peaked_at_top.lambda_gap == 0.0


def test_fading_none_collapses_draw_count(fig_params):
    codes = ce.generate_codes(15, 2, 0)
    distances = fig_distances(100.0, users=2)
    [curve] = ce.sweep_tradeoff(
        [distances], codes, fig_params, "mf", 1e-2, fading="none", fading_draws=5000
    )
    assert curve.fading_draws == 1


def test_single_user_sweep_has_nan_coupling(fig_params):
    codes = ce.generate_codes(15, 1, 0)
    [curve] = ce.sweep_tradeoff(np.array([[50.0]]), codes, fig_params, "mf", (), fading="none")
    assert np.isnan(curve.coupling)
    assert curve.se_monotone

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee.tradeoff import TradeoffCurve


def fig_placement(distance, users=3):
    return ce.draw_placement(ce.FixedGeometry(50.0, (distance,) * (users - 1)), users)


def test_sweep_grid_validation(fig_params):
    codes = ce.generate_codes(15, 3, 0)
    placement = fig_placement(200.0)
    with pytest.raises(ce.ConfigurationError):
        ce.sweep_tradeoff(placement, codes, fig_params, "mf", 1e-2, sweep_powers=np.array([]))
    with pytest.raises(ce.ConfigurationError):
        ce.sweep_tradeoff(
            placement, codes, fig_params, "mf", 1e-2, sweep_powers=np.array([1e-3, 1e-4])
        )
    with pytest.raises(ce.ConfigurationError):
        ce.sweep_tradeoff(
            placement, codes, fig_params, "mf", 1e-2, sweep_powers=np.array([1e-3, 2e-2])
        )
    with pytest.raises(ce.ConfigurationError):
        ce.sweep_tradeoff(placement, codes, fig_params, "zf", 1e-2)


def test_dec_curve_ignores_interferer_powers(fig_params):
    codes = ce.generate_codes(15, 3, 1)
    placement = fig_placement(100.0)
    a = ce.sweep_tradeoff(placement, codes, fig_params, "dec", 1e-2, fading="none")
    b = ce.sweep_tradeoff(placement, codes, fig_params, "dec", 1e-9, fading="none")
    assert np.array_equal(a.ee, b.ee)
    assert np.array_equal(a.se, b.se)


def test_curve_shape_flags_and_cross_module_consistency(fig_params):
    codes = ce.generate_codes(15, 3, 42)
    placement = fig_placement(200.0)
    curve = ce.sweep_tradeoff(placement, codes, fig_params, "mf", 1e-2, fading="none")
    assert curve.se_monotone
    assert curve.ee_unimodal
    assert curve.lambda_gap >= 0.0
    # the EE peak on the grid agrees with the stationarity solver through the
    # best-response map, within one grid step
    channel = ce.draw_channel(placement, 2.0, "none")
    _, eff_interference = ce.mf_sinr(
        np.array([[0.0, 1e-2, 1e-2]]),
        channel.gain_power[None],
        ce.mf_mai_weights(codes.correlation)[None],
        fig_params.noise_power,
    )
    itf = eff_interference[0, 0]
    star = ce.optimal_sinr(itf, fig_params, fig_params.gap())
    response = ce.best_response_power(star.gamma_star, itf, fig_params.max_power)
    step = curve.powers[1] / curve.powers[0]
    assert curve.max_ee_power / response.power < step
    assert response.power / curve.max_ee_power < step


def test_mf_lambda_gap_shrinks_with_interference(fig_params):
    codes = ce.generate_codes(15, 3, 42)
    gaps = {}
    for distance in (200.0, 100.0, 80.0):
        curve = ce.sweep_tradeoff(
            fig_placement(distance),
            codes,
            fig_params,
            "mf",
            fig_params.max_power,
            fading="rayleigh",
            fading_draws=400,
            rng=np.random.default_rng(7),
        )
        gaps[distance] = curve.lambda_gap
    assert gaps[80.0] < gaps[100.0] < gaps[200.0]


def test_zero_circuit_power_peak_sinr_invariant(no_circuit_params):
    # with no circuit power the EE-optimal SINR does not depend on the
    # interference level; resolved on a fine grid without fading noise
    codes = ce.generate_codes(15, 3, 42)
    grid = np.geomspace(1e-6 * no_circuit_params.max_power, no_circuit_params.max_power, 400_000)
    peaks = []
    for distance in (200.0, 100.0, 80.0):
        curve = ce.sweep_tradeoff(
            fig_placement(distance),
            codes,
            no_circuit_params,
            "mf",
            no_circuit_params.max_power,
            sweep_powers=grid,
            fading="none",
        )
        peaks.append(curve.max_ee_sinr)
    spread = (max(peaks) - min(peaks)) / min(peaks)
    assert spread < 1e-4


def test_coupling_reported_with_reciprocal(fig_params):
    codes = ce.generate_codes(15, 3, 3)
    curve = ce.sweep_tradeoff(
        fig_placement(200.0), codes, fig_params, "mf", 1e-2, fading="none"
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
        lambda_gap=float(se[-1] - se[20]),
        receiver="mf",
        fading_draws=1,
        se_monotone=True,
        ee_unimodal=True,
        coupling=1.0,
        coupling_reciprocal=1.0,
    )
    assert ce.gap_lambda(curve) == pytest.approx(se[-1] - se[20])
    peaked_at_top = TradeoffCurve(
        powers=powers,
        se=se,
        ee=np.arange(64.0),
        sinr=np.ones(64),
        max_ee_index=63,
        lambda_gap=0.0,
        receiver="mf",
        fading_draws=1,
        se_monotone=True,
        ee_unimodal=True,
        coupling=1.0,
        coupling_reciprocal=1.0,
    )
    assert ce.gap_lambda(peaked_at_top) == 0.0


def test_fading_none_collapses_draw_count(fig_params):
    codes = ce.generate_codes(15, 2, 0)
    placement = fig_placement(100.0, users=2)
    curve = ce.sweep_tradeoff(
        placement, codes, fig_params, "mf", 1e-2, fading="none", fading_draws=5000
    )
    assert curve.fading_draws == 1


def test_single_user_sweep_has_nan_coupling(fig_params):
    codes = ce.generate_codes(15, 1, 0)
    placement = ce.draw_placement(ce.FixedGeometry(50.0, ()), 1)
    curve = ce.sweep_tradeoff(placement, codes, fig_params, "mf", (), fading="none")
    assert np.isnan(curve.coupling)
    assert curve.se_monotone

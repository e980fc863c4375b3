import dataclasses
import math

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee.metrics import BER_LIMIT


def test_gap_reference_values():
    assert ce.sinr_gap(1e-3) == pytest.approx(-1.5 / math.log(0.005), rel=1e-12)
    assert ce.sinr_gap(1e-6) == pytest.approx(-1.5 / math.log(5e-6), rel=1e-12)
    assert 0.0 < ce.sinr_gap(1e-3) < 1.0


def test_gap_rejects_boundary_and_out_of_range():
    # at ber = exp(-1.5)/5 the gap would hit 1 exactly
    with pytest.raises(ValueError):
        ce.sinr_gap(BER_LIMIT)
    with pytest.raises(ValueError):
        ce.sinr_gap(0.1)
    with pytest.raises(ValueError):
        ce.sinr_gap(0.0)
    with pytest.raises(ValueError):
        ce.sinr_gap(-1e-3)


def test_rate_and_spectral_efficiency():
    gap = ce.sinr_gap(1e-3)
    assert ce.rate(0.0, gap, 1e6) == 0.0
    assert ce.rate(0.0, gap, 1.0) == 0.0
    # gap * sinr = 1 gives exactly one bit/s/Hz
    assert ce.rate(1.0 / gap, gap, 1e6) == pytest.approx(1e6, rel=1e-12)
    sinr = 1.4632
    expected = 1e6 * math.log2(1.0 + gap * sinr)
    assert ce.rate(sinr, gap, 1e6) == pytest.approx(expected, rel=1e-12)
    assert ce.rate(sinr, gap, 1e6) == pytest.approx(5e5, rel=1e-3)
    # spectral efficiency is the rate at a bandwidth of 1 Hz
    assert ce.rate(sinr, gap, 1e6) == pytest.approx(1e6 * ce.rate(sinr, gap, 1.0))


def test_min_sinr_rate_round_trip():
    gap = ce.sinr_gap(1e-3)
    rng = np.random.default_rng(3)
    for min_rate in rng.uniform(1e4, 5e6, size=25):
        sinr = (2.0 ** (min_rate / 1e6) - 1.0) / gap
        assert ce.rate(sinr, gap, 1e6) == pytest.approx(min_rate, rel=1e-9)


def test_packet_success_values():
    assert ce.packet_success(0.0, 80) == 0.0
    assert ce.packet_success(math.log(2.0), 1) == pytest.approx(0.5, rel=1e-12)
    assert ce.packet_success(10.0, 80) == pytest.approx((1.0 - math.exp(-10.0)) ** 80, rel=1e-12)


def test_packet_success_shape_and_limits():
    values = ce.packet_success(np.linspace(0.0, 40.0, 200), 80)
    assert np.all(np.diff(values) > 0.0)
    assert np.all((values >= 0.0) & (values < 1.0))
    # large packets: the log-space form does not underflow to zero
    assert ce.packet_success(30.0, 10**4) > 0.0


def test_utility_reference_value(fig_params):
    gap = ce.sinr_gap(1e-3)
    expected = (
        1e6
        * math.log2(1.0 + gap * 10.0)
        * (50.0 / 80.0)
        * (1.0 - math.exp(-10.0)) ** 80
        / (1e-3 + fig_params.circuit_power)
    )
    assert ce.utility(1e-3, 10.0, fig_params, gap) == pytest.approx(expected, rel=1e-12)


def test_utility_limits(fig_params):
    gap = fig_params.gap()
    assert ce.utility(1e-3, 0.0, fig_params, gap) == 0.0
    assert ce.utility(1e6, 10.0, fig_params, gap) < 1e-3 * ce.utility(1e-3, 10.0, fig_params, gap)


def test_utility_requires_positive_total_power():
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-2,
        noise_power=1e-12,
    )
    with pytest.raises(ValueError):
        ce.utility(0.0, 1.0, params, 0.28)


def test_utility_monotone_decreasing_in_power(fig_params):
    gap = fig_params.gap()
    powers = np.geomspace(1e-5, 1e-1, 50)
    values = ce.utility(powers, 10.0, fig_params, gap)
    assert np.all(np.diff(values) < 0.0)


def test_global_ee_single_user_reduces_to_utility(fig_params):
    gap = fig_params.gap()
    rate = ce.rate(8.0, gap, 1e6)
    assert ce.global_ee([rate], [8.0], [2e-3], fig_params) == pytest.approx(
        float(ce.utility(2e-3, 8.0, fig_params, gap)), rel=1e-12
    )


def test_global_ee_two_identical_users(fig_params):
    gap = fig_params.gap()
    rate = ce.rate(8.0, gap, 1e6)
    assert ce.global_ee([rate, rate], [8.0, 8.0], [2e-3, 2e-3], fig_params) == pytest.approx(
        float(ce.utility(2e-3, 8.0, fig_params, gap)), rel=1e-12
    )


def test_global_ee_mixed_users_hand_computed(fig_params):
    gap = fig_params.gap()
    sinrs = np.array([4.0, 9.0, 20.0])
    powers = np.array([1e-3, 3e-3, 7e-3])
    rates = ce.rate(sinrs, gap, 1e6)
    numerator = sum(
        (50.0 / 80.0) * float(r) * (1.0 - math.exp(-float(s))) ** 80
        for r, s in zip(rates, sinrs)
    )
    denominator = float(np.sum(powers)) + 3 * fig_params.circuit_power
    assert ce.global_ee(rates, sinrs, powers, fig_params) == pytest.approx(
        numerator / denominator, rel=1e-12
    )


def test_global_ee_empty_and_removed_circuit(fig_params):
    assert ce.global_ee([], [], [], fig_params) == 0.0


def test_global_ee_row_wise_equals_each_row_alone(fig_params):
    rng = np.random.default_rng(8)
    gap = fig_params.gap()
    for k in (0, 1, 3, 17):
        sinrs = rng.uniform(0.5, 30.0, size=(6, k))
        powers = rng.uniform(1e-6, 1e-2, size=(6, k))
        rates = ce.rate(sinrs, gap, 1e6)
        rows = ce.global_ee(rates, sinrs, powers, fig_params)
        for b in range(6):
            alone = ce.global_ee(rates[b], sinrs[b], powers[b], fig_params)
            assert isinstance(alone, float) and rows[b] == alone
        assert np.array_equal(rates.sum(axis=1), [np.sum(rates[b]) for b in range(6)])
    # Rows that lost every user: no power, hence an EE of 0.
    assert ce.global_ee(rates[:, :0], sinrs[:, :0], powers[:, :0], fig_params).tolist() == [0.0] * 6


def test_dbm_to_watt():
    assert ce.dbm_to_watt(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert ce.dbm_to_watt(10.0) == pytest.approx(1e-2, rel=1e-12)
    assert ce.dbm_to_watt(7.0) == pytest.approx(10.0 ** (-2.3), rel=1e-12)


def test_ee_params_validation():
    good = dict(
        packet_bits=80,
        info_bits=50,
        circuit_power=1e-3,
        bandwidth=1e6,
        max_power=1e-2,
        noise_power=1e-12,
    )
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "info_bits": 81})
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "info_bits": 0})
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "circuit_power": -1e-3})
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "max_power": 0.0})
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "ber": 0.15})
    with pytest.raises(ValueError):
        ce.EEParams(**{**good, "min_rate": -1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["circuit_power", "bandwidth", "max_power", "noise_power", "min_rate", "ber"]
)
def test_ee_params_refuse_non_finite_numbers(fig_params, name, value):
    # A NaN circuit power would reach the solver's table index as a huge negative int.
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(fig_params, **{name: value})


def test_ee_params_derived_quantities(fig_params):
    assert fig_params.load_fraction == pytest.approx(0.625)
    assert fig_params.gap() == pytest.approx(ce.sinr_gap(1e-3))
    # min_rate is half the bandwidth, so the SINR that sustains it is (sqrt(2) - 1) / gap
    floor = (2**0.5 - 1.0) / fig_params.gap()
    assert ce.rate(floor, fig_params.gap(), fig_params.bandwidth) == pytest.approx(
        fig_params.min_rate, rel=1e-12
    )

import dataclasses

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee.optimize import _stationarity

from conftest import run_single


def make_params(packet_bits=80, info_bits=50, circuit_power=0.0, ber=1e-3):
    return ce.EEParams(
        packet_bits=packet_bits,
        info_bits=info_bits,
        circuit_power=circuit_power,
        bandwidth=1e6,
        max_power=1e-2,
        noise_power=1e-12,
        ber=ber,
    )


def grid_argmax(eff_interference, params, gap, lo=1e-3, hi=1e7, points=300_000):
    """Brute-force oracle: argmax of the utility on a dense log grid."""
    grid = np.geomspace(lo, hi, points)
    values = ce.utility_vs_sinr(grid, eff_interference, params, gap)
    return float(grid[np.argmax(values)])


def test_residual_derivative_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(25):
        sinr = 10.0 ** rng.uniform(-2, 4)
        gap = rng.uniform(0.05, 0.95)
        packets = float(rng.integers(1, 200))
        ratio = 10.0 ** rng.uniform(-3, 6)
        _, derivative = _stationarity(sinr, gap, packets, ratio)
        step = 1e-6 * sinr
        up, _ = _stationarity(sinr + step, gap, packets, ratio, with_derivative=False)
        down, _ = _stationarity(sinr - step, gap, packets, ratio, with_derivative=False)
        finite = (up - down) / (2.0 * step)
        assert finite == pytest.approx(derivative, rel=1e-4, abs=1e-18)


def test_optimal_sinr_matches_linear_grid_argmax_without_circuit_power():
    # with no circuit power the peak sits below 100, inside the linear grid
    params = make_params(circuit_power=0.0)
    gap = params.gap()
    solved = ce.optimal_sinr(2.5e-9, params, gap)
    grid = np.arange(1e-3, 100.0 + 1e-3, 1e-3)
    values = ce.utility_vs_sinr(grid, 2.5e-9, params, gap)
    best = grid[np.argmax(values)]
    assert solved.gamma_star == pytest.approx(best, abs=1e-3)


def test_optimal_sinr_matches_log_grid_oracle_randomized():
    rng = np.random.default_rng(77)
    for _ in range(25):
        packets = int(rng.integers(1, 200))
        info = int(rng.integers(1, packets + 1))
        ber = 10.0 ** rng.uniform(-8, np.log10(0.04))
        itf = 10.0 ** rng.uniform(-12, -4)
        circuit = 10.0 ** rng.uniform(-6, -2) if rng.random() > 0.25 else 0.0
        params = make_params(packets, info, circuit, ber)
        gap = params.gap()
        try:
            solved = ce.optimal_sinr(itf, params, gap)
        except ce.NoInteriorMaximumError:
            continue
        oracle = grid_argmax(itf, params, gap)
        assert abs(solved.gamma_star - oracle) / oracle < 1e-3


def test_optimal_sinr_residual_is_tiny():
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    solved = ce.optimal_sinr(2.5e-9, params, params.gap())
    assert abs(solved.residual) < 1e-9


def test_interference_invariance_without_circuit_power():
    params = make_params(circuit_power=0.0)
    gap = params.gap()
    stars = [ce.optimal_sinr(itf, params, gap).gamma_star for itf in (1e-12, 1e-9, 1e-6)]
    spread = (max(stars) - min(stars)) / min(stars)
    assert spread < 1e-6


def test_gamma_star_nondecreasing_in_circuit_power():
    gap = ce.sinr_gap(1e-3)
    stars = []
    for circuit in (0.0, 1e-3, 1e-2):
        params = make_params(circuit_power=circuit)
        stars.append(ce.optimal_sinr(2.5e-9, params, gap).gamma_star)
    assert stars[0] <= stars[1] <= stars[2]
    assert stars[0] < stars[2]


def test_gamma_star_depends_only_on_cost_ratio():
    params_a = make_params(circuit_power=2e-3)
    params_b = make_params(circuit_power=4e-3)
    gap = params_a.gap()
    a = ce.optimal_sinr(1e-6, params_a, gap).gamma_star
    b = ce.optimal_sinr(2e-6, params_b, gap).gamma_star
    assert abs(a - b) / a < 1e-9


def test_utility_derivative_changes_sign_at_gamma_star():
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    gap = params.gap()
    itf = 2.5e-9
    star = ce.optimal_sinr(itf, params, gap).gamma_star

    def derivative(sinr):
        step = 1e-6 * sinr
        up = ce.utility_vs_sinr(sinr + step, itf, params, gap)
        down = ce.utility_vs_sinr(sinr - step, itf, params, gap)
        return (up - down) / (2.0 * step)

    assert derivative(star * 0.999) > 0.0
    assert derivative(star * 1.001) < 0.0


def test_no_interior_maximum_raises_with_bracket():
    params = make_params(circuit_power=1.0)
    with pytest.raises(ce.NoInteriorMaximumError) as excinfo:
        ce.optimal_sinr(1e-12, params, params.gap())
    assert excinfo.value.bracket[1] == pytest.approx(1e6)


def test_batch_solver_flags_instead_of_raising():
    params = make_params(circuit_power=1.0)
    itf = np.array([1e-12, 1e-3])
    stars, no_interior, _, high = ce.solve_optimal_sinr_batch(itf, params, params.gap())
    assert no_interior.tolist() == [True, False]
    assert stars[0] == high[0] == pytest.approx(1e6)


def test_batch_solver_warm_start_agrees_with_cold():
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    gap = params.gap()
    rng = np.random.default_rng(4)
    itf = 10.0 ** rng.uniform(-10, -5, size=64)
    cold, _, _, _ = ce.solve_optimal_sinr_batch(itf, params, gap)
    warm, _, _, _ = ce.solve_optimal_sinr_batch(itf, params, gap, initial_guess=cold * 1.01)
    assert np.max(np.abs(warm - cold) / cold) < 1e-8


def test_batch_solver_rejects_bad_interference():
    params = make_params()
    with pytest.raises(ValueError):
        ce.solve_optimal_sinr_batch(np.array([1e-9, 0.0]), params, params.gap())


def test_quasiconcavity_concave_stub_passes():
    grid = np.linspace(0.0, 2.0, 301)
    report = ce.check_quasiconcavity(lambda g: -((g - 1.0) ** 2), grid)
    assert report.passed
    assert report.monotone_violation is None


def test_quasiconcavity_multimodal_stub_fails_with_location():
    grid = np.linspace(0.0, 2.0, 301)
    report = ce.check_quasiconcavity(np.vectorize(lambda g: np.sin(10.0 * g)), grid)
    assert not report.passed
    assert report.monotone_violation is not None
    low, mid, high = report.monotone_violation
    assert 0.0 <= low <= 2.0 and 0.0 <= mid <= 2.0 and 0.0 <= high <= 2.0


def test_quasiconcavity_of_actual_utility_randomized():
    rng = np.random.default_rng(99)
    grid = np.geomspace(1e-3, 1e6, 4000)
    for _ in range(40):
        itf = 10.0 ** rng.uniform(-12, -4)
        circuit = 10.0 ** rng.uniform(-6, -2) if rng.random() > 0.3 else 0.0
        params = make_params(circuit_power=circuit)
        gap = params.gap()
        report = ce.check_quasiconcavity(
            lambda g: ce.utility_vs_sinr(g, itf, params, gap), grid, rng=rng
        )
        assert report.passed, (itf, circuit, report)


def test_best_response_uncapped():
    response = ce.best_response_power(10.0, 1e-4, 1e-2)
    assert response.power == pytest.approx(1e-3, rel=1e-12)
    assert not response.capped
    assert response.achieved_sinr == pytest.approx(10.0, rel=1e-12)


def test_best_response_capped():
    response = ce.best_response_power(1e3, 1e-4, 1e-2)
    assert response.power == 1e-2
    assert response.capped
    assert response.achieved_sinr == pytest.approx(100.0, rel=1e-12)


def test_best_response_validation():
    with pytest.raises(ValueError):
        ce.best_response_power(0.0, 1e-4, 1e-2)
    with pytest.raises(ValueError):
        ce.best_response_power(1.0, 0.0, 1e-2)


def nash_setup(seed, k_users=5, receiver="mf"):
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=ce.dbm_to_watt(7.0),
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=5e5,
    )
    scenario = ce.draw_scenario(
        ce.RingGeometry(50.0, 200.0), k_users, 63, receiver, seed
    )
    result = run_single(scenario, params)
    return scenario, params, result


def no_removal_seed(k_users=5, receiver="mf", start=0):
    seed = start
    while True:
        scenario, params, result = nash_setup(seed, k_users, receiver)
        if not result.removed[0] and result.converged[0]:
            return scenario, params, result
        seed += 1


def test_verify_nash_single_user():
    scenario, params, result = nash_setup(3, k_users=1)
    assert not result.removed[0]
    report = ce.verify_nash(
        result, scenario, params, algorithm="alg1", rng=np.random.default_rng(0)
    )
    assert report.equilibrium
    assert report.uniqueness_checked and report.uniqueness_ok


def test_verify_nash_converged_multiuser():
    scenario, params, result = no_removal_seed()
    report = ce.verify_nash(
        result, scenario, params, algorithm="alg1", rng=np.random.default_rng(1)
    )
    assert report.equilibrium, report.violations
    assert report.max_improvement < 1e-6
    assert report.uniqueness_checked and report.uniqueness_ok


@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_verify_nash_batched_restarts_match_single_runs(receiver):
    # the restarts run as one batch; each row must end where a batch-of-one
    # run from the same start ends, so the reported deviation is theirs
    scenario, params, result = no_removal_seed(receiver=receiver)
    restarts = 3
    report = ce.verify_nash(
        result, scenario, params, algorithm="alg1", restarts=restarts,
        rng=np.random.default_rng(2),
    )
    draws = np.random.default_rng(2).uniform(-4.0, 0.0, size=(restarts, scenario.user_count))
    starts = params.noise_power * 10.0**draws
    batch = ce.run_control_batch(
        np.repeat(scenario.channel.gain_power[None], restarts, axis=0),
        np.repeat(scenario.codes.correlation[None], restarts, axis=0),
        receiver,
        "alg1",
        params,
        initial_power=starts,
    )
    reference = result.power[0]
    scale = np.where(reference > 0.0, reference, 1.0)
    deviation = 0.0
    for r, start in enumerate(starts):
        single = run_single(scenario, params, initial_power=start[None])
        assert np.array_equal(single.power[0], batch.power[r])
        assert single.removed[0] == batch.removed[r]
        deviation = max(deviation, float(np.max(np.abs(single.power[0] - reference) / scale)))
    assert report.restart_max_deviation == deviation


def test_verify_nash_flags_perturbed_user():
    scenario, params, result = no_removal_seed()
    powers = result.power.copy()
    powers[0, 0] = min(2.0 * powers[0, 0], params.max_power)
    sinr, eff_interference = ce.mf_sinr(
        powers,
        scenario.channel.gain_power[None],
        ce.mf_mai_weights(scenario.codes.correlation)[None],
        params.noise_power,
    )
    perturbed = dataclasses.replace(
        result,
        power=powers,
        sinr=sinr,
        eff_interference=eff_interference,
    )
    report = ce.verify_nash(perturbed, scenario, params)
    assert not report.equilibrium
    assert any(user == 0 for user, _, _ in report.violations)


def test_verify_nash_rejects_nonconverged():
    scenario, params, result = no_removal_seed()
    stalled = dataclasses.replace(result, converged=np.array([False]))
    with pytest.raises(ce.NotConvergedError):
        ce.verify_nash(stalled, scenario, params)

import dataclasses

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee import optimize
from cdma_ee.optimize import BRACKET_MAX, _stationarity

from conftest import (
    NotConvergedError,
    best_response_power,
    check_quasiconcavity,
    gamma_star,
    run_single,
    verify_nash,
)


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
    values = ce.utility(grid * eff_interference, grid, params, gap)
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
    solved = gamma_star(2.5e-9, params)
    grid = np.arange(1e-3, 100.0 + 1e-3, 1e-3)
    values = ce.utility(grid * 2.5e-9, grid, params, gap)
    best = grid[np.argmax(values)]
    assert solved == pytest.approx(best, abs=1e-3)


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
        solved, no_interior = ce.solve_optimal_sinr_batch(np.array([itf]), params)
        if no_interior[0]:
            continue
        oracle = grid_argmax(itf, params, gap)
        assert abs(solved[0] - oracle) / oracle < 1e-3
    # the extreme parameter sets of the start table, from a one-bit packet to
    # 20000 bits and from the largest valid BER down to 1e-15
    checked = 0
    for packets in (1, 20000):
        for ber in (0.044, 1e-8, 1e-15):
            for itf, circuit in ((1e-9, 0.0), (1e-9, 1e-4), (1e-7, 1e-2), (1e-11, 1e-6)):
                params = make_params(packets, 1, circuit, ber)
                solved, no_interior = ce.solve_optimal_sinr_batch(np.array([itf]), params)
                if no_interior[0]:
                    continue
                oracle = grid_argmax(itf, params, params.gap())
                assert abs(solved[0] - oracle) / oracle < 1e-3, (packets, ber, itf, circuit)
                checked += 1
    assert checked >= 20


def test_optimal_sinr_residual_is_tiny():
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    solved = gamma_star(2.5e-9, params)
    residual, _ = _stationarity(
        solved, params.gap(), params.packet_bits, params.circuit_power / 2.5e-9,
        with_derivative=False,
    )
    assert abs(residual) < 1e-9


def test_interference_invariance_without_circuit_power():
    params = make_params(circuit_power=0.0)
    stars = [gamma_star(itf, params) for itf in (1e-12, 1e-9, 1e-6)]
    spread = (max(stars) - min(stars)) / min(stars)
    assert spread < 1e-6


def test_gamma_star_nondecreasing_in_circuit_power():
    stars = []
    for circuit in (0.0, 1e-3, 1e-2):
        params = make_params(circuit_power=circuit)
        stars.append(gamma_star(2.5e-9, params))
    assert stars[0] <= stars[1] <= stars[2]
    assert stars[0] < stars[2]


def test_gamma_star_depends_only_on_cost_ratio():
    params_a = make_params(circuit_power=2e-3)
    params_b = make_params(circuit_power=4e-3)
    a = gamma_star(1e-6, params_a)
    b = gamma_star(2e-6, params_b)
    assert abs(a - b) / a < 1e-9


def test_utility_derivative_changes_sign_at_gamma_star():
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    gap = params.gap()
    itf = 2.5e-9
    star = gamma_star(itf, params)

    def derivative(sinr):
        step = 1e-6 * sinr
        up = ce.utility((sinr + step) * itf, sinr + step, params, gap)
        down = ce.utility((sinr - step) * itf, sinr - step, params, gap)
        return (up - down) / (2.0 * step)

    assert derivative(star * 0.999) > 0.0
    assert derivative(star * 1.001) < 0.0


def test_batch_solver_flags_instead_of_raising():
    params = make_params(circuit_power=1.0)
    itf = np.array([1e-12, 1e-3])
    stars, no_interior = ce.solve_optimal_sinr_batch(itf, params)
    assert no_interior.tolist() == [True, False]
    # a flagged entry reports the bracket ceiling it searched up to
    assert stars[0] == pytest.approx(1e6)


def test_batch_solver_entry_does_not_depend_on_its_batch():
    # each entry's bytes are the same solved alone, shuffled, or among others
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    rng = np.random.default_rng(4)
    itf = 10.0 ** rng.uniform(-12, -4, size=64)  # flagged and interior entries
    together, flags = ce.solve_optimal_sinr_batch(itf, params)
    assert flags.any() and not flags.all()
    order = rng.permutation(itf.size)
    shuffled, shuffled_flags = ce.solve_optimal_sinr_batch(itf[order], params)
    assert np.array_equal(shuffled.view(np.int64), together[order].view(np.int64))
    assert np.array_equal(shuffled_flags, flags[order])
    larger = np.concatenate([10.0 ** rng.uniform(-14, -2, size=200), itf])
    inside, inside_flags = ce.solve_optimal_sinr_batch(larger, params)
    assert np.array_equal(inside[200:].view(np.int64), together.view(np.int64))
    assert np.array_equal(inside_flags[200:], flags)
    for i in range(itf.size):
        alone, alone_flag = ce.solve_optimal_sinr_batch(itf[i : i + 1], params)
        assert alone.view(np.int64)[0] == together.view(np.int64)[i]
        assert alone_flag[0] == flags[i]


@pytest.mark.parametrize("packet_bits, ber", [(80, 1e-3), (1, 1e-15), (20000, 0.044)])
def test_batch_solver_depends_on_the_cost_ratio_alone(packet_bits, ber):
    # scaling circuit power and interference by 2^k keeps rho = p_c/I exact
    rng = np.random.default_rng(5)
    itf = 10.0 ** rng.uniform(-12, -4, size=256)
    params = make_params(packet_bits, 1, 5e-3, ber)
    stars, flags = ce.solve_optimal_sinr_batch(itf, params)
    for k in (-40, -3, 1, 7, 30):
        scaled = dataclasses.replace(params, circuit_power=params.circuit_power * 2.0**k)
        other, other_flags = ce.solve_optimal_sinr_batch(itf * 2.0**k, scaled)
        assert np.array_equal(other.view(np.int64), stars.view(np.int64)), k
        assert np.array_equal(other_flags, flags), k


def test_batch_solver_flag_is_the_residual_sign_at_the_ceiling():
    # the flag is set exactly where the residual at BRACKET_MAX is positive,
    # on both sides of the boundary, and a flagged entry sits at the ceiling
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    gap, packets = params.gap(), float(params.packet_bits)

    def rising_at_ceiling(itf):
        residual, _ = _stationarity(BRACKET_MAX, gap, packets, params.circuit_power / itf, False)
        return residual > 0.0

    lo, hi = 1e-12, 1e-8  # flagged at lo, interior at hi
    assert rising_at_ceiling(lo) and not rising_at_ceiling(hi)
    for _ in range(200):  # bisect the boundary to adjacent floats
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if rising_at_ceiling(mid) else (lo, mid)
    steps = np.arange(-64, 65)
    itf = np.concatenate([lo + steps * np.spacing(lo), lo * (1.0 + np.geomspace(1e-12, 1e-1, 23)),
                          lo * (1.0 - np.geomspace(1e-12, 1e-1, 23)), [3.63e-10]])
    stars, flags = ce.solve_optimal_sinr_batch(itf, params)
    expected = np.array([rising_at_ceiling(i) for i in itf])
    assert np.array_equal(flags, expected)
    assert flags.any() and not flags.all()
    assert np.all(stars[flags] == BRACKET_MAX)
    assert np.all(stars[~flags] <= BRACKET_MAX)
    # no interior maximum up to the ceiling at 3.63e-10, though a root lies just past it
    assert flags[-1] and stars[-1] == BRACKET_MAX


@pytest.mark.parametrize("guess", [9.5e5, BRACKET_MAX])
def test_batch_solver_flag_does_not_depend_on_warm_start(guess, monkeypatch):
    # no interior maximum up to the ceiling: Newton steps started near the
    # ceiling must not find the root beyond it and clear the flag
    params = make_params(circuit_power=ce.dbm_to_watt(7.0))
    itf = np.array([3.63e-10])
    cold, cold_flag = ce.solve_optimal_sinr_batch(itf, params)
    coefficients, threshold = optimize._root_table(params.gap(), params.packet_bits)
    start = np.zeros_like(coefficients)
    start[0] = np.log(guess)  # a constant cubic: every entry starts at guess
    monkeypatch.setattr(optimize, "_root_table", lambda gap, packet_bits: (start, threshold))
    warm, warm_flag = ce.solve_optimal_sinr_batch(itf, params)
    assert cold_flag.tolist() == warm_flag.tolist() == [True]
    assert cold[0] <= BRACKET_MAX and warm[0] <= BRACKET_MAX
    assert warm[0] == cold[0]


TABLE_SETS = [(80, 1e-3), (1, 1e-15), (1, 0.044), (20000, 1e-15), (20000, 0.044)]


@pytest.mark.parametrize("packet_bits, ber", TABLE_SETS)
def test_batch_solver_root_is_a_newton_fixed_point(packet_bits, ber):
    # one Newton step from the table's cubic lands within rounding of the
    # root: a second step moves no interior root by more than 24 ULP
    params = make_params(packet_bits, 1, 1.0, ber)
    itf = np.exp(np.linspace(-40.0, 40.0, 10_001))
    stars, flags = ce.solve_optimal_sinr_batch(itf, params)
    assert flags.any() and not flags.all()
    rho = params.circuit_power / itf
    residual, derivative = _stationarity(stars, params.gap(), float(packet_bits), rho)
    again = stars - residual / derivative
    moved = np.abs(again.view(np.int64) - stars.view(np.int64))[~flags]
    assert moved.max() <= 24


@pytest.mark.parametrize("packet_bits, ber", TABLE_SETS)
def test_root_table_threshold_is_where_the_ceiling_residual_turns_positive(packet_bits, ber):
    params = make_params(packet_bits, 1, 1.0, ber)
    gap = params.gap()
    _, threshold = optimize._root_table(gap, packet_bits)
    below = np.nextafter(threshold, 0.0)
    assert 0.0 < below < threshold < np.inf
    assert _stationarity(BRACKET_MAX, gap, float(packet_bits), threshold, False)[0] > 0.0
    assert not _stationarity(BRACKET_MAX, gap, float(packet_bits), below, False)[0] > 0.0
    # the solver's flag switches between the same two doubles of rho
    for rho, flagged in ((below, False), (threshold, True)):
        at_rho = dataclasses.replace(params, circuit_power=rho)
        stars, flags = ce.solve_optimal_sinr_batch(np.array([1.0]), at_rho)
        assert flags.tolist() == [flagged]
        assert stars[0] == BRACKET_MAX if flagged else stars[0] < BRACKET_MAX


def test_root_tables_do_not_depend_on_build_order():
    keys = [(make_params(p, 1, 0.0, b).gap(), p) for p, b in TABLE_SETS]

    def build(order):
        optimize._root_table.cache_clear()
        tables = {key: optimize._root_table(*key) for key in order}
        return {key: (c.tobytes(), np.float64(t).tobytes()) for key, (c, t) in tables.items()}

    assert build(keys) == build(keys[::-1])


def test_batch_solver_rejects_bad_interference():
    # Every value that is not positive and finite, first and last in a batch.
    params = make_params()
    for bad in (0.0, -1e-9, np.nan, np.inf, -np.inf):
        for batch in ([bad, 1e-9, 2e-9], [1e-9, 2e-9, bad]):
            with pytest.raises(ValueError, match="positive and finite"):
                ce.solve_optimal_sinr_batch(np.array(batch), params)
    sinr, flagged = ce.solve_optimal_sinr_batch(np.empty(0), params)
    assert sinr.shape == flagged.shape == (0,)


def test_quasiconcavity_concave_stub_passes():
    grid = np.linspace(0.0, 2.0, 301)
    report = check_quasiconcavity(lambda g: -((g - 1.0) ** 2), grid)
    assert report.passed
    assert report.monotone_violation is None


def test_quasiconcavity_multimodal_stub_fails_with_location():
    grid = np.linspace(0.0, 2.0, 301)
    report = check_quasiconcavity(np.vectorize(lambda g: np.sin(10.0 * g)), grid)
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
        report = check_quasiconcavity(
            lambda g: ce.utility(g * itf, g, params, gap), grid, rng=rng
        )
        assert report.passed, (itf, circuit, report)


def test_best_response_uncapped():
    response = best_response_power(10.0, 1e-4, 1e-2)
    assert response.power == pytest.approx(1e-3, rel=1e-12)
    assert not response.capped
    assert response.achieved_sinr == pytest.approx(10.0, rel=1e-12)


def test_best_response_capped():
    response = best_response_power(1e3, 1e-4, 1e-2)
    assert response.power == 1e-2
    assert response.capped
    assert response.achieved_sinr == pytest.approx(100.0, rel=1e-12)


def test_best_response_validation():
    with pytest.raises(ValueError):
        best_response_power(0.0, 1e-4, 1e-2)
    with pytest.raises(ValueError):
        best_response_power(1.0, 0.0, 1e-2)


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
    report = verify_nash(
        result, scenario, params, algorithm="alg1", rng=np.random.default_rng(0)
    )
    assert report.equilibrium
    assert report.uniqueness_checked and report.uniqueness_ok


def test_verify_nash_converged_multiuser():
    scenario, params, result = no_removal_seed()
    report = verify_nash(
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
    report = verify_nash(
        result, scenario, params, algorithm="alg1", restarts=restarts,
        rng=np.random.default_rng(2),
    )
    users = scenario.channel.gain_power.size
    draws = np.random.default_rng(2).uniform(-4.0, 0.0, size=(restarts, users))
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
    report = verify_nash(perturbed, scenario, params)
    assert not report.equilibrium
    assert any(user == 0 for user, _, _ in report.violations)


def test_verify_nash_rejects_nonconverged():
    scenario, params, result = no_removal_seed()
    stalled = dataclasses.replace(result, converged=np.array([False]))
    with pytest.raises(NotConvergedError):
        verify_nash(stalled, scenario, params)

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee.control import run_control_batch
from cdma_ee.seeding import realization_seed

from conftest import codes_from_signs, run_single


def orthogonal_scenario(distances, receiver="mf"):
    """Two/four-user scenario with orthogonal codes: no MAI, exact per-user math."""
    k = len(distances)
    n = 4
    base = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.int64
    ).T
    codes = codes_from_signs(base[:, :k])
    placement = ce.draw_placement(ce.FixedGeometry(distances[0], tuple(distances[1:])), k)
    channel = ce.draw_channel(placement, 2.0, "none")
    return ce.NetworkScenario(placement=placement, channel=channel, codes=codes, receiver=receiver)


def test_verhulst_fixed_point():
    power = np.array([1e-3, 2e-3])
    target = np.array([5.0, 9.0])
    updated = ce.verhulst_step(power, target.copy(), target, 0.5, 1e-2)
    assert updated == pytest.approx(power, rel=1e-14)


def test_verhulst_double_sinr_halves_power():
    power = np.array([4e-3])
    updated = ce.verhulst_step(power, np.array([10.0]), np.array([5.0]), 0.5, 1e-2)
    assert updated == pytest.approx(0.5 * power, rel=1e-14)


def test_verhulst_zero_target_switches_off():
    updated = ce.verhulst_step(np.array([1e-3]), np.array([1.0]), np.array([0.0]), 0.5, 1e-2)
    assert updated[0] == 0.0


def test_verhulst_clamps_to_bounds():
    updated = ce.verhulst_step(np.array([9e-3]), np.array([0.1]), np.array([100.0]), 0.5, 1e-2)
    assert updated[0] == 1e-2
    collapsed = ce.verhulst_step(np.array([1e-3]), np.array([50.0]), np.array([1.0]), 0.5, 1e-2)
    assert collapsed[0] == 0.0


def test_verhulst_alpha_validation():
    with pytest.raises(ce.ConfigurationError):
        ce.verhulst_step(np.array([1e-3]), np.array([1.0]), np.array([1.0]), 1.0, 1e-2)


def test_single_user_converges_to_closed_form(fig_params):
    scenario = orthogonal_scenario([50.0])
    result = run_single(scenario, fig_params, iterations=500, alpha=0.5)
    itf = fig_params.noise_power / scenario.channel.gain_power[0]
    star = ce.optimal_sinr(itf, fig_params, fig_params.gap())
    assert abs(result.sinr[0, 0] - star.gamma_star) / star.gamma_star < 1e-3
    assert result.power[0, 0] == pytest.approx(star.gamma_star * itf, rel=1e-3)
    assert result.converged[0] and not result.removed[0]
    assert result.stabilized_iteration[0] >= 0


def test_multiuser_mf_reaches_simultaneous_fixed_point(fig_params):
    scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 4, 63, "mf", seed=11)
    result = run_single(scenario, fig_params)
    if result.removed[0]:
        pytest.skip("draw produced an infeasible user; fixed point not defined")
    active = result.active[0]
    assert np.all(
        np.abs(result.sinr[0, active] - result.target_sinr[0, active])
        / result.target_sinr[0, active]
        < 1e-3
    )


def test_power_bounds_hold_at_every_iteration(fig_params):
    scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 6, 63, "mf", seed=2)
    trajectory = []
    run_single(scenario, fig_params, iterations=120, trajectory=trajectory)
    stacked = np.concatenate(trajectory)
    assert np.all(stacked >= 0.0)
    assert np.all(stacked <= fig_params.max_power)


def test_forced_removal_of_weak_user(no_circuit_params):
    # orthogonal codes decouple feasibility: user k needs gamma* x noise/h2_k;
    # the cap sits between the strong and the weak user's requirement
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-6,
        noise_power=1e-12,
        ber=1e-3,
    )
    scenario = orthogonal_scenario([50.0, 2000.0])
    gap = params.gap()
    star = ce.optimal_sinr(1e-12 / scenario.channel.gain_power[0], params, gap).gamma_star
    need_strong = star * 1e-12 / scenario.channel.gain_power[0]
    need_weak = star * 1e-12 / scenario.channel.gain_power[1]
    assert need_strong < params.max_power < need_weak  # scenario sanity
    result = run_single(scenario, params)
    assert result.removed[0] == [1]
    assert result.power[0, 1] == 0.0
    assert result.target_sinr[0, 1] == 0.0
    survivor = result.sinr[0, 0]
    assert abs(survivor - star) / star < 1e-3
    assert result.rounds[0] == 2


def test_dec_feasible_scenarios_have_no_removals(fig_params):
    # decorrelator targets are decoupled: removal happens only if the
    # per-user cap check fails, verified here elementwise
    for seed in range(5):
        scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 8, 63, "dec", seed=seed)
        itf = ce.dec_eff_interference(
            scenario.channel.gain_power,
            scenario.codes.correlation,
            np.ones(8, dtype=bool),
            fig_params.noise_power,
        )
        stars = np.array(
            [ce.optimal_sinr(i, fig_params, fig_params.gap()).gamma_star for i in itf]
        )
        feasible = np.all(stars * itf <= fig_params.max_power)
        result = run_single(scenario, fig_params)
        assert (len(result.removed[0]) == 0) == feasible


def test_alg2_with_zero_min_rate_never_removes():
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-6,
        noise_power=1e-12,
        ber=1e-3,
        min_rate=0.0,
    )
    scenario = orthogonal_scenario([50.0, 2000.0])
    result = run_single(scenario, params, "alg2")
    assert result.removed[0] == []
    # the infeasible user sits at the cap instead
    assert result.power[0, 1] == params.max_power


def test_alg2_reduces_to_alg1_when_min_sinr_dominates():
    # with no circuit power the EE-optimal SINR is ~7.29; min_rate = 2 Mbit/s
    # maps to a floor of ~10.6, so the rate condition is implied
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=1e-12,
        ber=1e-3,
        min_rate=2e6,
    )
    assert params.sinr_floor() > 7.3
    removal_seen = False
    for seed in range(8):
        scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 10, 15, "mf", seed=seed)
        one = run_single(scenario, params, "alg1")
        two = run_single(scenario, params, "alg2")
        removal_seen |= bool(one.removed[0])
        assert one.removed == two.removed
        assert np.array_equal(one.power, two.power)
        assert np.array_equal(one.sinr, two.sinr)
        assert np.array_equal(one.rounds, two.rounds)
    assert removal_seen  # the equivalence was exercised on the removal path


def test_alg2_keeps_user_that_meets_min_rate(fig_params):
    # weak user cannot reach its EE target but clears the low rate floor at
    # the cap, so only the EE-only rule drops it
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-6,
        noise_power=1e-12,
        ber=1e-3,
        min_rate=1e4,
    )
    scenario = orthogonal_scenario([50.0, 60.0, 2000.0])
    one = run_single(scenario, params, "alg1")
    two = run_single(scenario, params, "alg2")
    assert one.removed[0] == [2]
    assert two.removed[0] == []
    assert two.power[0, 2] == params.max_power
    cap_sinr = params.max_power * scenario.channel.gain_power[2] / params.noise_power
    cap_rate = params.bandwidth * np.log2(1.0 + params.gap() * cap_sinr)
    assert cap_rate >= params.min_rate


def test_baseline_matches_alg1_when_all_feasible(fig_params):
    scenario = orthogonal_scenario([50.0, 80.0])
    one = run_single(scenario, fig_params, "alg1")
    base = run_single(scenario, fig_params, "baseline")
    assert one.removed[0] == [] and base.removed[0] == []
    assert np.array_equal(one.power, base.power)
    assert np.array_equal(one.sinr, base.sinr)


def test_baseline_pins_infeasible_user_at_max_power():
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-6,
        noise_power=1e-12,
        ber=1e-3,
    )
    scenario = orthogonal_scenario([50.0, 2000.0])
    result = run_single(scenario, params, "baseline")
    assert result.removed[0] == []
    assert result.power[0, 1] == params.max_power
    # orthogonal codes: the feasible user still converges to its own target
    itf = params.noise_power / scenario.channel.gain_power[0]
    star = ce.optimal_sinr(itf, params, params.gap()).gamma_star
    assert abs(result.sinr[0, 0] - star) / star < 1e-3


def test_baseline_correlated_fixed_point_oracle(fig_params):
    # independent oracle: pin the infeasible user at the cap and iterate the
    # best-response map for the others until it stabilizes
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=2e-6,
        noise_power=1e-12,
        ber=1e-3,
    )
    scenario = ce.draw_scenario(
        ce.FixedGeometry(50.0, (60.0, 2000.0)), 3, 15, "mf", seed=4, fading="none"
    )
    result = run_single(scenario, params, "baseline")
    assert result.power[0, 2] == params.max_power
    gap = params.gap()
    weights = scenario.codes.correlation**2
    np.fill_diagonal(weights, 0.0)
    h2 = scenario.channel.gain_power
    powers = np.array([params.noise_power, params.noise_power, params.max_power])
    for _ in range(400):
        mai = weights @ (powers * h2)
        itf = (mai + params.noise_power) / h2
        for k in (0, 1):
            star = ce.optimal_sinr(itf[k], params, gap).gamma_star
            powers[k] = min(star * itf[k], params.max_power)
    assert result.power[0, :2] == pytest.approx(powers[:2], rel=1e-3)


def test_baseline_sum_power_dominates_alg1(fig_params):
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-6,
        noise_power=1e-12,
        ber=1e-3,
    )
    scenario = orthogonal_scenario([50.0, 2000.0])
    base = run_single(scenario, params, "baseline")
    one = run_single(scenario, params, "alg1")
    assert base.power.sum() >= one.power.sum()


def test_removal_order_worst_gain_first():
    # all users infeasible: they are dropped worst gain first, one per round
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=1e-12,
        noise_power=1e-12,
        ber=1e-3,
    )
    scenario = orthogonal_scenario([50.0, 80.0, 120.0])
    result = run_single(scenario, params)
    assert result.removed[0] == [2, 1, 0]
    assert not result.active.any()
    assert result.converged[0]  # empty network is a valid, flagged outcome
    assert result.rounds[0] == 3


def test_dec_removal_never_raises_survivor_noise_enhancement():
    rng = np.random.default_rng(123)
    for _ in range(100):
        k = int(rng.integers(3, 20))
        codes = ce.generate_codes(31, k, rng)
        everyone = np.ones(k, dtype=bool)
        full = ce.dec_eff_interference(np.ones(k), codes.correlation, everyone, 1.0)
        drop = int(rng.integers(0, k))
        keep = everyone.copy()
        keep[drop] = False
        sub = ce.dec_eff_interference(np.ones(k), codes.correlation, keep, 1.0)
        assert np.all(sub <= full[keep] + 1e-12)


def test_control_outcome_determinism(fig_params):
    scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 7, 63, "mf", seed=21)
    a = run_single(scenario, fig_params)
    b = run_single(scenario, fig_params)
    assert np.array_equal(a.power, b.power)
    assert np.array_equal(a.sinr, b.sinr)
    assert a.removed == b.removed
    assert np.array_equal(a.rounds, b.rounds)
    assert np.array_equal(a.stabilized_iteration, b.stabilized_iteration)


def test_batch_rows_match_single_runs(fig_params):
    scenarios = [
        ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 5, 63, "mf", realization_seed(77, r))
        for r in range(8)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    batch = run_control_batch(gain, corr, "mf", "alg1", fig_params)
    for b, scenario in enumerate(scenarios):
        single = run_single(scenario, fig_params)
        assert np.array_equal(single.power[0], batch.power[b])
        assert np.array_equal(single.sinr[0], batch.sinr[b])
        assert single.removed[0] == batch.removed[b]
        assert single.rounds[0] == batch.rounds[b]


def test_batch_composition_does_not_change_rows(fig_params):
    scenarios = [
        ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 6, 63, "dec", realization_seed(31, r))
        for r in range(6)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    whole = run_control_batch(gain, corr, "dec", "alg2", fig_params)
    parts_a = run_control_batch(gain[:2], corr[:2], "dec", "alg2", fig_params)
    parts_b = run_control_batch(gain[2:], corr[2:], "dec", "alg2", fig_params)
    assert np.array_equal(whole.power, np.concatenate([parts_a.power, parts_b.power]))
    assert np.array_equal(whole.sinr, np.concatenate([parts_a.sinr, parts_b.sinr]))


def test_algorithm_and_receiver_validation(fig_params):
    scenario = orthogonal_scenario([50.0])
    with pytest.raises(ce.ConfigurationError):
        run_control_batch(
            scenario.channel.gain_power[None],
            scenario.codes.correlation[None],
            "mf",
            "alg3",
            fig_params,
        )
    with pytest.raises(ce.ConfigurationError):
        run_control_batch(
            scenario.channel.gain_power[None],
            scenario.codes.correlation[None],
            "zf",
            "alg1",
            fig_params,
        )
    with pytest.raises(ce.ConfigurationError):
        run_single(scenario, fig_params, iterations=0)

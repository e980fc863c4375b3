import dataclasses
import functools

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee import control
from cdma_ee.control import run_control_batch
from cdma_ee.seeding import realization_seed

from conftest import codes_from_signs, gamma_star, reference_batch_round, run_single


def orthogonal_scenario(distances, receiver="mf"):
    """Two/four-user scenario with orthogonal codes: no MAI, exact per-user math."""
    k = len(distances)
    n = 4
    base = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.int64
    ).T
    codes = codes_from_signs(base[:, :k])
    placement = np.asarray(distances, dtype=float)
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


def test_verhulst_step_matches_the_written_out_update_bit_for_bit():
    rng = np.random.default_rng(26)
    alpha, max_power = 0.5, 1e-2
    power = rng.uniform(0.0, max_power, size=(40, 9))
    power[0, 0] = 0.0
    sinr = rng.uniform(0.0, 30.0, size=power.shape)
    target = rng.uniform(0.5, 20.0, size=power.shape)
    target[rng.random(power.shape) < 0.2] = 0.0  # switched-off users
    sinr[:, 1] = 0.0  # far below target: the update overshoots the cap
    inputs = [a.copy() for a in (power, sinr, target)]

    updated = ce.verhulst_step(power, sinr, target, alpha, max_power)

    safe_target = np.where(target > 0.0, target, 1.0)
    written = (1.0 + alpha) * power - alpha * (sinr / safe_target) * power
    expected = np.where(target > 0.0, np.clip(written, 0.0, max_power), 0.0)
    assert updated.tobytes() == expected.tobytes()
    assert (updated == max_power).any() and (updated[target == 0.0] == 0.0).all()
    assert (written[target > 0.0] < 0.0).any()  # some users clip to zero too
    for before, after in zip(inputs, (power, sinr, target)):
        assert before.tobytes() == after.tobytes()


def test_single_user_converges_to_closed_form(fig_params):
    scenario = orthogonal_scenario([50.0])
    result = run_single(scenario, fig_params, iterations=500, alpha=0.5)
    itf = fig_params.noise_power / scenario.channel.gain_power[0]
    star = gamma_star(itf, fig_params)
    assert abs(result.sinr[0, 0] - star) / star < 1e-3
    assert result.power[0, 0] == pytest.approx(star * itf, rel=1e-3)
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
    star = gamma_star(1e-12 / scenario.channel.gain_power[0], params)
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
        stars = gamma_star(itf, fig_params)
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
    assert ce.rate(7.3, params.gap(), params.bandwidth) < params.min_rate
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
    star = gamma_star(itf, params)
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
    # The codes are those draw_scenario(..., seed=4) draws: its third substream.
    placement = np.array([50.0, 60.0, 2000.0])
    codes_rng = np.random.default_rng(np.random.SeedSequence(4).spawn(3)[2])
    scenario = ce.NetworkScenario(
        placement=placement,
        channel=ce.draw_channel(placement, 2.0, "none"),
        codes=ce.generate_codes(15, 3, codes_rng),
        receiver="mf",
    )
    result = run_single(scenario, params, "baseline")
    assert result.power[0, 2] == params.max_power
    weights = scenario.codes.correlation**2
    np.fill_diagonal(weights, 0.0)
    h2 = scenario.channel.gain_power
    powers = np.array([params.noise_power, params.noise_power, params.max_power])
    for _ in range(400):
        mai = weights @ (powers * h2)
        itf = (mai + params.noise_power) / h2
        for k in (0, 1):
            star = gamma_star(itf[k], params)
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


INFEASIBLE_PARAMS = ce.EEParams(
    packet_bits=80,
    info_bits=50,
    circuit_power=0.0,
    bandwidth=1e6,
    max_power=1e-12,
    noise_power=1e-12,
    ber=1e-3,
)


def assert_default_outputs(result, row):
    """A row that never finished a round without removal keeps its initial outputs."""
    for name in ("power", "sinr", "target_sinr", "eff_interference"):
        assert np.all(getattr(result, name)[row] == 0.0), name
    assert result.stabilized_iteration[row] == -1


def test_removal_order_worst_gain_first():
    # all users infeasible: they are dropped worst gain first, one per round
    scenario = orthogonal_scenario([50.0, 80.0, 120.0])
    result = run_single(scenario, INFEASIBLE_PARAMS)
    assert result.removed[0] == [2, 1, 0]
    assert not result.active.any()
    assert result.converged[0]  # empty network is a valid, flagged outcome
    assert result.rounds[0] == 3
    assert_default_outputs(result, 0)


def test_dec_refusal_after_a_removal_keeps_default_outputs(monkeypatch):
    # round 1 removes the worst user; its decorrelator is then refused in round 2
    def refuse_partial(gain_power, correlation, active, noise_power):
        if not np.all(active):
            raise ce.ReceiverUnavailableError("refused: a user is inactive")
        return noise_power / gain_power

    monkeypatch.setattr(control, "dec_eff_interference", refuse_partial)
    scenario = orthogonal_scenario([50.0, 80.0, 120.0], receiver="dec")
    result = run_single(scenario, INFEASIBLE_PARAMS)
    assert result.failed[0] and not result.converged[0]
    assert result.rounds[0] == 2 and result.removed[0] == [2]
    assert result.failure_reasons == {0: "refused: a user is inactive"}
    assert_default_outputs(result, 0)


@pytest.mark.parametrize("block_values", [control.DEC_BLOCK_VALUES, 40])
def test_dec_stack_rows_match_single_runs(monkeypatch, fig_params, block_values):
    # N = K = 4: singular and regular decorrelators share a block, and rows that remove
    # users stack their survivors by active count (40 values: blocks of 2 rows at K = 4).
    monkeypatch.setattr(control, "DEC_BLOCK_VALUES", block_values)
    params = dataclasses.replace(fig_params, max_power=ce.dbm_to_watt(0.0))
    scenarios = [
        ce.draw_scenario(ce.RingGeometry(50.0, 2000.0), 4, 4, "dec", realization_seed(5, r))
        for r in range(20)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    batch = run_control_batch(gain, corr, "dec", "alg1", params, iterations=100)
    assert 0 < batch.failed.sum() < 20
    assert {len(removed) for removed in batch.removed} == {0, 2, 3, 4}
    for b, scenario in enumerate(scenarios):
        single = run_single(scenario, params, iterations=100)
        for name in ("power", "sinr", "target_sinr", "eff_interference", "active", "rounds",
                     "converged", "stabilized_iteration", "failed", "iterations_run"):
            assert np.array_equal(getattr(single, name)[0], getattr(batch, name)[b]), name
        assert single.removed[0] == batch.removed[b]
        assert single.failure_reasons.get(0) == batch.failure_reasons.get(b)
    # The regular rows alone give the same bytes: a refused row leaves its block-mates be.
    regular = np.flatnonzero(~batch.failed)
    alone = run_control_batch(gain[regular], corr[regular], "dec", "alg1", params, iterations=100)
    assert not alone.failed.any()
    assert np.array_equal(alone.power, batch.power[regular])
    assert np.array_equal(alone.eff_interference, batch.eff_interference[regular])


def _assert_same_result(batch, rows, users, expected):
    """``rows`` (a slice) of ``batch``, over their first ``users``, hold the bytes of
    ``expected`` in every field; refusal reasons are keyed by row within ``rows``."""
    for f in dataclasses.fields(expected):
        a, e = getattr(batch, f.name), getattr(expected, f.name)
        if isinstance(e, np.ndarray):
            a = a[rows, :users] if a.ndim == 2 else a[rows]
            assert a.shape == e.shape and a.dtype == e.dtype, f.name
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(e).tobytes(), f.name
        elif f.name == "failure_reasons":
            assert {b - rows.start: why for b, why in a.items() if rows.start <= b < rows.stop} == e
        else:
            assert a[rows] == e, f.name


@pytest.mark.parametrize("receiver", ["mf", "dec"])
@pytest.mark.parametrize("k", [3, 5, 12])
def test_rows_started_on_their_first_users_equal_the_k_column_run(fig_params, receiver, k):
    # 12-user draws (16 padded users under MF), each row started with its first K users
    # active, against the same draws cut to K columns: outputs and trajectory alike.
    params = dataclasses.replace(fig_params, max_power=ce.dbm_to_watt(0.0))
    scenarios = [
        ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 12, 63, receiver, realization_seed(9, r))
        for r in range(5)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    first = np.arange(12) < k
    for iterations in (150, 500):
        started_path, alone_path = [], []
        started = run_control_batch(
            gain, corr, receiver, "alg1", params, iterations=iterations,
            active=np.tile(first, (5, 1)),
        )
        alone = run_control_batch(
            gain[:, :k], corr[:, :k, :k], receiver, "alg1", params, iterations=iterations
        )
        _assert_same_result(started, slice(0, 5), k, alone)
        assert not started.power[:, k:].any() and not started.active[:, k:].any()
        for path, batch_gain, batch_corr, mask in (
            (started_path, gain, corr, np.tile(first, (5, 1))),
            (alone_path, gain[:, :k], corr[:, :k, :k], None),
        ):
            run_control_batch(
                batch_gain, batch_corr, receiver, "alg1", params, iterations=iterations,
                trajectory=path, active=mask,
            )
        assert len(started_path) == len(alone_path) > iterations  # alg1 removes users here
        for step, alone_step in zip(started_path, alone_path):
            assert step.shape[1] == 12 and not step[:, k:].any()
            assert step[:, :k].tobytes() == alone_step.tobytes()


def test_rows_of_different_k_in_one_batch_equal_each_run_alone(fig_params):
    # The harness's matched-filter batch: rows of K = 2 to 12 on 12-user draws.
    scenarios = [
        ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 12, 63, "mf", realization_seed(4, r))
        for r in range(8)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    row_users = np.array([2, 5, 6, 7, 12, 11, 3, 9])
    batch = run_control_batch(
        gain, corr, "mf", "alg1", fig_params, active=np.arange(12) < row_users[:, None]
    )
    for b, k in enumerate(row_users):
        alone = run_control_batch(gain[b : b + 1, :k], corr[b : b + 1, :k, :k], "mf", "alg1", fig_params)
        _assert_same_result(batch, slice(b, b + 1), k, alone)


def test_active_mask_of_the_wrong_shape_is_refused(fig_params):
    scenario = orthogonal_scenario([50.0, 80.0])
    with pytest.raises(ce.ConfigurationError, match="active must have shape"):
        run_single(scenario, fig_params, active=np.ones((1, 3), dtype=bool))


def test_alpha_is_checked_when_no_row_takes_a_step(fig_params):
    # No Verhulst step runs: every MF user starts removed, or the one DEC row is refused.
    scenario = orthogonal_scenario([50.0, 80.0])
    gain = scenario.channel.gain_power[None]
    cases = [
        ("mf", scenario.codes.correlation[None], np.zeros((1, 2), dtype=bool)),
        ("dec", np.ones((1, 2, 2)), None),
    ]
    for receiver, corr, active in cases:
        for alpha in (2.0, 0.0):
            with pytest.raises(ce.ConfigurationError, match=r"alpha must lie in \(0, 1\)"):
                run_control_batch(
                    gain, corr, receiver, "alg1", fig_params, alpha=alpha, active=active
                )


@pytest.mark.parametrize("receiver", ["mf", "dec"])
@pytest.mark.parametrize("start", [-1e-3, np.nan, np.inf])
def test_bad_initial_power_is_refused_up_front(fig_params, receiver, start):
    # No DEC round checks powers: unrefused, -1e-3 removes all three users and NaN or inf
    # gives NaN powers.
    scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 3, 15, receiver, seed=5)
    with pytest.raises(ce.ConfigurationError, match="initial_power must be non-negative and finite"):
        run_single(scenario, fig_params, initial_power=start)
    starts = np.full((1, 3), fig_params.noise_power)
    starts[0, 2] = start
    with pytest.raises(ce.ConfigurationError, match="initial_power"):
        run_single(scenario, fig_params, initial_power=starts)


def test_fixed_matched_filter_targets_are_refused(fig_params):
    scenario = orthogonal_scenario([50.0, 80.0])
    with pytest.raises(ce.ConfigurationError, match="re-solved every iteration"):
        run_single(scenario, fig_params, resolve_each_iteration=False)


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


# (receiver, algorithm, K, max power in dBm).  Each case runs on the realizations
# of seed 20260810 that _early_exit_rows picks by what its assertions need.
EARLY_EXIT_CASES = {
    "mf": ("mf", "alg1", 8, 20.0),
    "dec_alg1": ("dec", "alg1", 6, 0.0),
    "dec_baseline": ("dec", "baseline", 3, 10.0),
}
EARLY_EXIT_SCAN = 200  # the realizations each case picks from


def _cycle_periods(trajectory, iterations):
    """Period of each row's final power state in the first round (None if none)."""
    powers = np.stack(trajectory[:iterations]).view(np.int64)
    return [
        next((p for p in range(1, 17) if np.array_equal(row[-1], row[-1 - p])), None)
        for row in powers.transpose(1, 0, 2)
    ]


def _early_exit_runner(params, case, realizations, iterations):
    """The case's stacked gains and correlations of ``realizations`` and a runner over them."""
    receiver, algorithm, k, max_power_dbm = EARLY_EXIT_CASES[case]
    params = dataclasses.replace(params, max_power=ce.dbm_to_watt(max_power_dbm))
    geometry = ce.RingGeometry(50.0, 200.0)
    scenarios = [
        ce.draw_scenario(geometry, k, 63, receiver, realization_seed(20260810, r))
        for r in realizations
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])

    def run(gain, corr, trajectory=None, active=None, iterations=iterations):
        return run_control_batch(
            gain, corr, receiver, algorithm, params, iterations=iterations,
            trajectory=trajectory, active=active,
        )

    return gain, corr, run


@functools.cache
def _early_exit_rows(params, case):
    """The first of ``EARLY_EXIT_SCAN`` realizations that meet each need of the case.

    Every row runs each round of 60 iterations to its end without an exact
    repeat.  Under the DEC baseline every row ends in a cycle of period 1, 2,
    3 or 6, each period on some row.  Under DEC alg1 a row runs three rounds
    at 60, 117 and 500 iterations; at 117 iterations, with and without its
    last user, one row removes two users and one removes one.  Under MF one
    row leaves early at 500 iterations and one runs them all; one runs two
    rounds or more.
    """
    gain, corr, run = _early_exit_runner(params, case, range(EARLY_EXIT_SCAN), 500)
    results = {n: run(gain, corr, iterations=n) for n in (60, 117, 500)}
    usable = results[60].iterations_run == results[60].rounds * 60
    early = results[500].iterations_run < results[500].rounds * 500
    if case == "dec_baseline":
        path = []
        run(gain, corr, path)
        periods = np.array([p or 0 for p in _cycle_periods(path, 500)])
        usable &= np.isin(periods, (1, 2, 3, 6))
        needs = [periods == p for p in (1, 2, 3, 6)]
    elif case == "dec_alg1":
        last_out = np.ones(gain.shape, dtype=bool)
        last_out[:, -1] = False
        layouts = (results[117], run(gain, corr, active=last_out, iterations=117))
        fewest = np.minimum(*([len(r) for r in result.removed] for result in layouts))
        three_rounds = np.all([r.rounds >= 3 for r in results.values()], axis=0)
        needs = [early, three_rounds, fewest == 1, fewest >= 2]
    else:
        needs = [early, ~early, results[500].rounds >= 2]
    picked = set()
    for need in needs:
        found = np.flatnonzero(usable & need)
        assert found.size, f"{case}: no realization of the first {EARLY_EXIT_SCAN} meets a need"
        picked.add(int(found[0]))
    return tuple(sorted(picked))


def _early_exit_case(fig_params, case, iterations):
    """The case's stacked gains and correlations and a runner over them."""
    realizations = _early_exit_rows(fig_params, case)
    return _early_exit_runner(fig_params, case, realizations, iterations)


@pytest.mark.parametrize("sinr_tol", [control.SINR_STABLE_REL_TOL, 2e-16])
@pytest.mark.parametrize("iterations", [500, 117, 60])
@pytest.mark.parametrize("case", sorted(EARLY_EXIT_CASES))
def test_early_exit_matches_full_length_loop(monkeypatch, fig_params, case, iterations, sinr_tol):
    # A 2e-16 settling tolerance leaves some phases of the rounding-level
    # cycles unsettled, so the settling iteration falls inside the last cycle.
    gain, corr, run = _early_exit_case(fig_params, case, iterations)
    monkeypatch.setattr(control, "SINR_STABLE_REL_TOL", sinr_tol)

    expected_path, actual_path = [], []
    with monkeypatch.context() as patch:
        patch.setattr(control, "_batch_round", reference_batch_round)
        expected = run(gain, corr, expected_path)
    actual = run(gain, corr)
    run(gain, corr, actual_path)

    compared = [f.name for f in dataclasses.fields(actual) if f.name != "iterations_run"]
    for name in compared:
        a, e = getattr(actual, name), getattr(expected, name)
        assert (a == e if name in ("removed", "failure_reasons") else np.array_equal(a, e)), name
    assert len(actual_path) == len(expected_path)
    assert all(np.array_equal(a, e) for a, e in zip(actual_path, expected_path))
    budget = expected.rounds * iterations
    assert np.array_equal(expected.iterations_run, budget)
    assert np.all(actual.iterations_run <= budget)
    if iterations == 60:  # no row repeats this early
        assert np.array_equal(actual.iterations_run, budget)
    if iterations == 500:
        assert np.any(actual.iterations_run < budget)
    if case in ("dec_baseline", "mf") and iterations == 500:
        assert np.unique(actual.iterations_run).size > 1  # rows leave at different iterations
    if case == "dec_baseline" and iterations == 500:
        assert {1, 2, 3, 6} <= set(_cycle_periods(expected_path, iterations))
    if case == "mf" and iterations == 500:
        assert np.any(actual.iterations_run == budget)
    if case == "dec_alg1":
        assert actual.rounds.max() >= 3

    for b in range(len(gain)):
        single = run(gain[b : b + 1], corr[b : b + 1])
        assert single.removed[0] == actual.removed[b]
        for name in [*compared, "iterations_run"]:
            if name not in ("removed", "failure_reasons"):
                assert np.array_equal(getattr(single, name)[0], getattr(actual, name)[b]), name


def test_early_exit_stops_within_one_period_past_the_first_repeat(fig_params):
    # Each row runs on from its first anchor repeat s to the step in the last
    # iteration's phase of its period P, which lies in (s, s + P].
    iterations, window = 500, control.REPEAT_WINDOW
    gain, corr, run = _early_exit_case(fig_params, "dec_baseline", iterations)
    path = []
    run(gain, corr, path)
    powers = np.stack(path).view(np.int64)  # powers[t - 1] is state t
    periods = set()
    for b, ran in enumerate(run(gain, corr).iterations_run):
        first, period = next(
            (s, s % window or window)
            for s in range(window + 1, iterations)
            if np.array_equal(powers[s - 1, b], powers[s - 1 - (s % window or window), b])
        )
        periods.add(period)
        assert first < ran <= first + period
        assert (iterations - ran) % period == 0
    assert periods == {1, 2, 3, 6}


def test_dec_users_out_of_play_hold_positive_zero_power(fig_params):
    # The decorrelator SINR is a plain power / interference, which reads +0.0
    # for a user masked out or removed only because such a user's power is
    # exactly +0.0 at every iteration and its interference is 1.0.
    iterations = 117
    gain, corr, run = _early_exit_case(fig_params, "dec_alg1", iterations)
    mask = np.ones(gain.shape, dtype=bool)
    mask[::2, -1] = False  # every other row starts without its last user
    removals = 0
    for b in range(len(gain)):
        path = []
        result = run(gain[b : b + 1], corr[b : b + 1], path, mask[b : b + 1])
        removed = result.removed[0]
        removals += len(removed)
        assert len(path) == result.rounds[0] * iterations
        for r in range(result.rounds[0]):
            out = ~mask[b]
            out[removed[:r]] = True
            for power in path[r * iterations : (r + 1) * iterations]:
                assert np.all(power[0, out].view(np.int64) == 0)
        out = ~result.active[0]
        assert out.sum() == (not mask[b, -1]) + len(removed)
        assert np.all(result.eff_interference[0, out] == 1.0)
        assert np.all(result.sinr[0, out].view(np.int64) == 0)
    assert removals >= 3


def test_early_exit_keeps_settling_that_starts_on_the_anchor(monkeypatch, fig_params):
    # A lone DEC user still climbing from the noise floor jumps onto a cap set
    # between its 31st and 32nd unclipped powers: state 32, the second anchor,
    # starts a period-1 cycle, and the SINRs first settle at iteration 33.
    scenario = orthogonal_scenario([50.0], receiver="dec")
    path = []
    run_single(scenario, fig_params, algorithm="baseline", iterations=40, trajectory=path)
    cap = 0.5 * (path[30][0, 0] + path[31][0, 0])
    params = dataclasses.replace(fig_params, max_power=cap)
    actual = run_single(scenario, params, algorithm="baseline")
    with monkeypatch.context() as patch:
        patch.setattr(control, "_batch_round", reference_batch_round)
        expected = run_single(scenario, params, algorithm="baseline")
    assert actual.iterations_run[0] == 2 * control.REPEAT_WINDOW + 2
    assert actual.stabilized_iteration[0] == expected.stabilized_iteration[0] == 33
    assert actual.power[0, 0] == expected.power[0, 0] == cap


@pytest.mark.parametrize("circuit_power", [None, 0.1])
@pytest.mark.parametrize("iterations", [1, 2, 17, 33])
@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_short_rounds_count_alike_with_and_without_early_exit(
    monkeypatch, fig_params, receiver, iterations, circuit_power
):
    # Rows start above their fixed points by 1e-1 to 1e-7 of their powers, so they
    # settle at different iterations.  The settling bookkeeping of a round that may
    # leave early must give the counters of the full-length runs: the trajectory=
    # run and the reference loop.  No anchor is compared before step 17, so every
    # row runs its whole budget up to 17 iterations; at 33 a row whose powers all
    # sit at the cap repeats its anchor at step 17 and leaves at step 18.
    if circuit_power is not None:  # 0.1 W flags some decorrelator targets
        fig_params = dataclasses.replace(fig_params, circuit_power=circuit_power)
    geometry = ce.RingGeometry(50.0, 200.0)
    scenarios = [
        ce.draw_scenario(geometry, 6, 15, receiver, realization_seed(20260810, r)) for r in range(7)
    ]
    gain = np.stack([s.channel.gain_power for s in scenarios])
    corr = np.stack([s.codes.correlation for s in scenarios])
    fixed = run_control_batch(gain, corr, receiver, "baseline", fig_params).power
    start = fixed * (1.0 + 10.0 ** -np.arange(1.0, 8.0))[:, None]

    def run(**kwargs):
        return run_control_batch(
            gain, corr, receiver, "baseline", fig_params, iterations=iterations,
            initial_power=start, **kwargs,
        )

    actual, full = run(), run(trajectory=[])
    with monkeypatch.context() as patch:
        patch.setattr(control, "_batch_round", reference_batch_round)
        expected = run()
    for name in ("stabilized_iteration", "rounds", "target_flagged"):
        assert np.array_equal(getattr(actual, name), getattr(full, name)), name
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
    budget = full.rounds * iterations
    assert np.array_equal(full.iterations_run, budget)
    assert np.array_equal(expected.iterations_run, budget)
    left = actual.iterations_run != budget
    if iterations <= control.REPEAT_WINDOW + 1:
        assert not left.any()
    else:
        assert np.all(actual.iterations_run[left] == control.REPEAT_WINDOW + 2)
        assert np.all(fixed[left] == fig_params.max_power)
    if iterations == 33:
        assert np.unique(actual.stabilized_iteration).size > 1

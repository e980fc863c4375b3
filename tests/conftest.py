from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee import control
from cdma_ee.optimize import scan_unimodal, solve_optimal_sinr_batch
from cdma_ee.spreading import mf_sinr


@pytest.fixture
def fig_params():
    """Parameter table of the trade-off study (powers given in dBm there)."""
    return ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=ce.dbm_to_watt(7.0),
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=5e5,
    )


@pytest.fixture
def no_circuit_params():
    """Same constants with the circuit power zeroed (target SINR ~7.29)."""
    return ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=5e5,
    )


def codes_from_signs(signs) -> ce.SpreadingCodeSet:
    """Code set from an explicit +-1 chip matrix (N, K)."""
    signs = np.asarray(signs, dtype=np.int64)
    n = signs.shape[0]
    return ce.SpreadingCodeSet(
        chips=signs / np.sqrt(float(n)),
        correlation=(signs.T @ signs) / float(n),
    )


def run_single(scenario, params, algorithm="alg1", **kwargs) -> ce.BatchControlResult:
    """One realization through ``run_control_batch``, as a batch of one."""
    return ce.run_control_batch(
        scenario.channel.gain_power[None],
        scenario.codes.correlation[None],
        scenario.receiver,
        algorithm,
        params,
        **kwargs,
    )


def gamma_star(eff_interference, params):
    """EE-optimal SINR at each effective interference, solved cold (a scalar
    for a scalar); flagged entries sit at the bracket ceiling."""
    sinr, _ = ce.solve_optimal_sinr_batch(np.asarray(eff_interference, dtype=float), params)
    return sinr[()]


def reference_batch_round(
    gain_power,
    weights,
    dec_itf,
    active,
    params,
    iterations,
    alpha,
    initial_power,
    trajectory=None,
):
    """``control._batch_round`` as a loop that runs every one of its
    ``iterations``: the reference its early exit must match bit for bit."""
    batch, users = gain_power.shape
    noise = params.noise_power

    def observe(power):
        if weights is not None:
            return mf_sinr(power, gain_power, weights, noise)
        return np.where(active, power / dec_itf, 0.0), dec_itf

    power = np.where(active, initial_power, 0.0)
    targets = np.zeros((batch, users))
    active_row = np.nonzero(active)[0]
    prev_sinr = None
    stabilized = np.full(batch, -1, dtype=int)
    flagged = np.zeros(batch, dtype=bool)
    last_change = np.zeros(batch)

    for it in range(iterations):
        sinr, eff_itf = observe(power)
        if it == 0 or weights is not None:
            targets[active], no_interior = solve_optimal_sinr_batch(eff_itf[active], params)
            flagged[active_row[no_interior]] = True

        updated = control.verhulst_step(power, sinr, targets, alpha, params.max_power)
        if it == iterations - 1:
            movement = np.abs(updated - power) / np.maximum(power, noise)
            last_change = movement.max(axis=1) if users else np.zeros(batch)
        if prev_sinr is not None:
            shift = np.abs(sinr - prev_sinr) / np.maximum(np.abs(prev_sinr), 1e-300)
            settled = shift.max(axis=1) < control.SINR_STABLE_REL_TOL
            stabilized = np.where(settled, np.where(stabilized < 0, it, stabilized), -1)
        prev_sinr = sinr
        power = updated
        if trajectory is not None:
            trajectory.append(power.copy())

    sinr, eff_itf = observe(power)
    ran = np.full(batch, iterations)
    return power, sinr, targets, eff_itf, stabilized, last_change, flagged, ran


# Verification oracles of the per-user problem: the single-peak check of the
# utility and the capped best-response map.


@dataclass(frozen=True)
class QuasiconcavityReport:
    """Outcome of the single-peak scan plus definition spot checks."""

    unimodal: bool
    peak_index: int
    monotone_violation: tuple[float, float, float] | None
    pair_checks: int
    pair_violation: tuple[float, float, float] | None

    @property
    def passed(self) -> bool:
        return self.unimodal and self.pair_violation is None


def check_quasiconcavity(
    sampler: Callable[[np.ndarray], np.ndarray],
    sinr_grid: np.ndarray,
    rng: np.random.Generator | None = None,
    pair_checks: int = 64,
) -> QuasiconcavityReport:
    """Verify the sampled utility rises to one peak and then falls.

    Any dip before the peak or rise after it beyond the scan's slack (1e-12
    relative to the largest magnitude on the grid) fails the scan, and the
    witnessing triple of grid points is reported.  Random convex combinations
    of grid points are additionally checked against the defining inequality
    z(l*x1 + (1-l)*x2) >= min(z(x1), z(x2)).
    """
    grid = np.asarray(sinr_grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("sinr_grid must be strictly increasing with >= 3 points")
    values = np.asarray(sampler(grid), dtype=float)
    peak, i, slack = scan_unimodal(values)
    if i is None:
        monotone_violation = None
    elif i < peak:  # a dip before the peak
        monotone_violation = (float(grid[i]), float(grid[i + 1]), float(grid[peak]))
    else:  # a rise after it
        monotone_violation = (float(grid[peak]), float(grid[i]), float(grid[i + 1]))

    pair_violation = None
    gen = rng if rng is not None else np.random.default_rng(0)
    checks = pair_checks if grid.size >= 2 else 0
    if checks:
        left = gen.integers(0, grid.size - 1, size=checks)
        right = gen.integers(0, grid.size, size=checks)
        right = np.where(right > left, right, np.minimum(left + 1, grid.size - 1))
        lam = gen.uniform(0.05, 0.95, size=checks)
        mid = lam * grid[left] + (1.0 - lam) * grid[right]
        z_mid = np.asarray(sampler(mid), dtype=float)
        floor = np.minimum(values[left], values[right]) - slack
        bad = np.flatnonzero(z_mid < floor)
        if bad.size:
            b = int(bad[0])
            pair_violation = (float(grid[left[b]]), float(mid[b]), float(grid[right[b]]))

    return QuasiconcavityReport(
        unimodal=monotone_violation is None,
        peak_index=peak,
        monotone_violation=monotone_violation,
        pair_checks=checks,
        pair_violation=pair_violation,
    )


@dataclass(frozen=True)
class BestResponse:
    """Power maximizing a user's own EE given everyone else's powers."""

    power: float
    capped: bool
    achieved_sinr: float


def best_response_power(
    target_sinr: float, eff_interference: float, max_power: float
) -> BestResponse:
    """Power reaching the target SINR, clipped at the transmit-power cap."""
    if target_sinr <= 0.0 or eff_interference <= 0.0:
        raise ValueError("target_sinr and eff_interference must be positive")
    wanted = target_sinr * eff_interference
    capped = wanted > max_power
    power = min(wanted, max_power)
    return BestResponse(power=power, capped=capped, achieved_sinr=power / eff_interference)


# Equilibrium oracle of the control loop's outcome: the deviation grid size,
# the relative gain that breaks the equilibrium, and the restart deviation
# that still counts as the same one.
NASH_DEVIATION_POINTS = 200
NASH_IMPROVEMENT_TOL = 1e-6
NASH_RESTART_TOL = 1e-4


class NotConvergedError(RuntimeError):
    """A power-control outcome did not stabilize and cannot be post-processed."""


@dataclass(frozen=True)
class NashReport:
    """Deviation-grid equilibrium check and optional uniqueness probe."""

    equilibrium: bool
    max_improvement: float
    violations: list[tuple[int, float, float]]  # (user, deviation power, rel. gain)
    uniqueness_checked: bool
    uniqueness_ok: bool | None
    restart_max_deviation: float | None


def verify_nash(
    result: ce.BatchControlResult,
    scenario: ce.NetworkScenario,
    params: ce.EEParams,
    algorithm: str | None = None,
    restarts: int = 5,
    rng: np.random.Generator | None = None,
) -> NashReport:
    """Check that no active user can gain by unilaterally changing power.

    ``result`` is the outcome of ``run_control_batch`` on ``scenario`` alone
    (a batch of one).  Each active user's utility is evaluated on a
    log-spaced deviation grid in (0, max_power] with everyone else frozen at
    the converged powers, that is at the result's effective interference.
    When ``algorithm`` is given and no user was removed, that scheme is
    restarted from random initial vectors, all in one batch, to probe
    uniqueness.  Restart vectors are drawn log-uniformly at or below the
    noise-floor start of the nominal dynamics: the zero-clamped update makes
    p = 0 absorbing, so a start far above the fixed point would just
    overshoot into that trap rather than probe for another equilibrium.
    """
    if result.power.shape[0] != 1:
        raise ValueError("verify_nash checks a batch of one realization")
    if not result.converged[0]:
        raise NotConvergedError("outcome did not converge; equilibrium check refused")
    power, sinr, active = result.power[0], result.sinr[0], result.active[0]
    eff_interference = result.eff_interference[0]
    user_count = power.size
    gap = params.gap()

    grid = ce.default_sweep_grid(params.max_power, NASH_DEVIATION_POINTS)
    violations: list[tuple[int, float, float]] = []
    max_improvement = 0.0
    for k in np.flatnonzero(active):
        base = float(ce.utility(power[k], sinr[k], params, gap))
        deviated = ce.utility(grid, grid / eff_interference[k], params, gap)
        gains = (deviated - base) / max(base, 1e-300)
        worst = float(np.max(gains))
        max_improvement = max(max_improvement, worst)
        if worst > NASH_IMPROVEMENT_TOL:
            at = int(np.argmax(gains))
            violations.append((int(k), float(grid[at]), worst))

    uniqueness_checked = False
    uniqueness_ok = None
    restart_max_deviation = None
    if algorithm is not None and not result.removed[0] and restarts > 0:
        gen = rng if rng is not None else np.random.default_rng(0)
        starts = params.noise_power * 10.0 ** gen.uniform(-4.0, 0.0, size=(restarts, user_count))
        others = ce.run_control_batch(
            np.repeat(scenario.channel.gain_power[None], restarts, axis=0),
            np.repeat(scenario.codes.correlation[None], restarts, axis=0),
            scenario.receiver,
            algorithm,
            params,
            initial_power=starts,
        )
        scale = np.where(power > 0.0, power, 1.0)
        uniqueness_checked = True
        restart_max_deviation = float(np.max(np.abs(others.power - power) / scale))
        uniqueness_ok = restart_max_deviation < NASH_RESTART_TOL

    return NashReport(
        equilibrium=not violations,
        max_improvement=max_improvement,
        violations=violations,
        uniqueness_checked=uniqueness_checked,
        uniqueness_ok=uniqueness_ok,
        restart_max_deviation=restart_max_deviation,
    )

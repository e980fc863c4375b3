"""Verhulst power allocation with outage removal and the max-power baseline.

Three schemes share one inner loop of fixed length:

* ``alg1`` removes, round by round, the worst-gain user whose achieved SINR
  stays below its EE-optimal target;
* ``alg2`` removes such a user only if it also misses its minimum rate;
* ``baseline`` never removes anyone, so users that cannot reach their target
  sit at the maximum transmit power.

Each round starts from ``power = noise_power`` for the surviving users, runs
the synchronous update

    p <- clamp((1 + a) p - a (sinr/target) p, [0, max_power])

for the configured number of iterations, and re-solves the EE-optimal target
from the current effective interference as it goes (every iteration under the
matched filter, where interference moves with the powers; once per round
under the decorrelator, whose SINR does not depend on the other powers).

The loop is written over batches of same-sized realizations.  All maths is
element-wise or per-row, so each realization's trajectory is bit-identical no
matter how realizations are grouped into batches or split across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import check_gain_power
from .errors import ConfigurationError, NotConvergedError, ReceiverUnavailableError
from .metrics import EEParams, rate, utility
from .optimize import solve_optimal_sinr_batch
from .scenario import RECEIVERS, NetworkScenario
from .spreading import dec_eff_interference, mf_mai_weights, mf_sinr
from .tradeoff import default_sweep_grid

ALGORITHMS = ("alg1", "alg2", "baseline")

# Inner loops stop after a fixed iteration count, so targets are never met
# exactly; 1% separates cap-limited users from nearly-converged ones.
REMOVAL_SINR_REL_TOL = 1e-2
POWER_STABLE_REL_TOL = 1e-6
SINR_STABLE_REL_TOL = 1e-6
# verify_nash: deviation grid size, the relative gain that breaks the
# equilibrium, and the restart deviation that still counts as the same one.
NASH_DEVIATION_POINTS = 200
NASH_IMPROVEMENT_TOL = 1e-6
NASH_RESTART_TOL = 1e-4


@dataclass
class BatchControlResult:
    """Stacked outcome arrays for a batch of same-sized realizations."""

    power: np.ndarray
    sinr: np.ndarray
    target_sinr: np.ndarray
    eff_interference: np.ndarray
    active: np.ndarray
    removed: list[list[int]]
    rounds: np.ndarray
    converged: np.ndarray
    stabilized_iteration: np.ndarray  # -1 where SINRs never settled
    target_flagged: np.ndarray
    failed: np.ndarray
    failure_reasons: dict[int, str] = field(default_factory=dict)


def verhulst_step(power, sinr, target_sinr, alpha, max_power):
    """One synchronous Verhulst update toward per-user SINR targets.

    Users with a zero target are switched off; everyone else is clamped to
    [0, max_power].  The update has its fixed point at sinr == target, and a
    user at p = 0 with a positive target stays there, which is why the loops
    initialize powers at the (positive) noise floor.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    power = np.asarray(power, dtype=float)
    target_sinr = np.asarray(target_sinr, dtype=float)
    safe_target = np.where(target_sinr > 0.0, target_sinr, 1.0)
    ratio = np.asarray(sinr, dtype=float) / safe_target
    updated = (1.0 + alpha) * power - alpha * ratio * power
    updated = np.clip(updated, 0.0, max_power)
    return np.where(target_sinr > 0.0, updated, 0.0)


def _batch_round(
    gain_power,
    weights,
    dec_itf,
    active,
    params: EEParams,
    iterations,
    alpha,
    initial_power,
    resolve_each_iteration,
    trajectory=None,
):
    """One fixed-length Verhulst round over a sub-batch; no removals here.

    Under the matched filter ``weights`` holds the MAI weights; under the
    decorrelator it is None and ``dec_itf`` holds the fixed effective
    interference (1.0 for inactive users).
    """
    batch, users = gain_power.shape
    noise = params.noise_power

    def observe(power):
        if weights is not None:
            return mf_sinr(power, gain_power, weights, noise)
        return np.where(active, power / dec_itf, 0.0), dec_itf

    power = np.where(active, initial_power, 0.0)
    targets = np.zeros((batch, users))
    active_row = np.nonzero(active)[0]  # the row of each active user, in mask order
    prev_sinr = None
    stabilized = np.full(batch, -1, dtype=int)
    flagged = np.zeros(batch, dtype=bool)
    last_change = np.zeros(batch)

    for it in range(iterations):
        sinr, eff_itf = observe(power)
        if it == 0 or (weights is not None and resolve_each_iteration):
            # Only active users are solved; each warm-starts from its last target.
            solved, no_interior = solve_optimal_sinr_batch(
                eff_itf[active], params, initial_guess=targets[active] if it else None
            )
            targets[active] = solved
            flagged[active_row[no_interior]] = True

        updated = verhulst_step(power, sinr, targets, alpha, params.max_power)
        if it == iterations - 1:
            movement = np.abs(updated - power) / np.maximum(power, noise)
            last_change = movement.max(axis=1) if users else np.zeros(batch)
        if prev_sinr is not None:
            shift = np.abs(sinr - prev_sinr) / np.maximum(np.abs(prev_sinr), 1e-300)
            settled = shift.max(axis=1) < SINR_STABLE_REL_TOL
            stabilized = np.where(settled, np.where(stabilized < 0, it, stabilized), -1)
        prev_sinr = sinr
        power = updated
        if trajectory is not None:
            trajectory.append(power.copy())

    sinr, eff_itf = observe(power)
    return power, sinr, targets, eff_itf, stabilized, last_change, flagged


def _removal_candidates(algorithm, sinr, targets, active, rates, min_rate):
    below = active & (targets > 0.0) & (sinr < targets * (1.0 - REMOVAL_SINR_REL_TOL))
    if algorithm == "alg2":
        below &= rates < min_rate
    elif algorithm == "baseline":
        below &= False
    return below


def run_control_batch(
    gain_power: np.ndarray,
    correlation: np.ndarray,
    receiver: str,
    algorithm: str,
    params: EEParams,
    iterations: int = 500,
    alpha: float = 0.5,
    initial_power: np.ndarray | None = None,
    resolve_each_iteration: bool = True,
    trajectory: list | None = None,
) -> BatchControlResult:
    """Run one scheme over a batch of same-sized realizations.

    ``gain_power`` is (B, K) and ``correlation`` (B, K, K).  Realizations whose
    decorrelator cannot be built are marked in ``failed`` instead of aborting
    the batch.  ``trajectory`` (tests only) collects the power array after
    every iteration.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
    if receiver not in RECEIVERS:
        raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")

    gain_power = np.asarray(gain_power, dtype=float)
    check_gain_power(gain_power, params.noise_power)
    batch, users = gain_power.shape
    correlation = np.asarray(correlation, dtype=float)
    if correlation.shape != (batch, users, users):
        raise ConfigurationError("correlation must have shape (batch, users, users)")
    weights = mf_mai_weights(correlation) if receiver == "mf" else None
    base_power = (
        np.full((batch, users), params.noise_power)
        if initial_power is None
        else np.broadcast_to(np.asarray(initial_power, dtype=float), (batch, users))
    )

    active = np.ones((batch, users), dtype=bool)
    removed: list[list[int]] = [[] for _ in range(batch)]
    rounds = np.zeros(batch, dtype=int)
    done = np.zeros(batch, dtype=bool)
    failed = np.zeros(batch, dtype=bool)
    failure_reasons: dict[int, str] = {}

    out_power = np.zeros((batch, users))
    out_sinr = np.zeros((batch, users))
    out_targets = np.zeros((batch, users))
    out_itf = np.zeros((batch, users))
    out_stab = np.full(batch, -1, dtype=int)
    out_flagged = np.zeros(batch, dtype=bool)
    out_change = np.zeros(batch)

    while True:
        open_rows = ~done & ~failed
        emptied = open_rows & ~active.any(axis=1)
        done |= emptied  # everyone removed: a valid, flagged empty network
        rows = np.flatnonzero(open_rows & ~emptied)
        if rows.size == 0:
            break
        rounds[rows] += 1

        dec_itf = None
        if receiver == "dec":
            dec_itf = np.ones((rows.size, users))
            kept = []
            for offset, b in enumerate(rows):
                try:
                    dec_itf[offset, active[b]] = dec_eff_interference(
                        gain_power[b], correlation[b], active[b], params.noise_power
                    )
                except ReceiverUnavailableError as exc:
                    failed[b] = True
                    failure_reasons[int(b)] = str(exc)
                    continue
                kept.append(offset)
            if len(kept) < rows.size:
                keep_idx = np.asarray(kept, dtype=int)
                rows = rows[keep_idx]
                if rows.size == 0:
                    continue
                dec_itf = dec_itf[keep_idx]

        power, sinr, targets, eff_itf, stab, change, flagged = _batch_round(
            gain_power[rows],
            weights[rows] if weights is not None else None,
            dec_itf,
            active[rows],
            params,
            iterations,
            alpha,
            base_power[rows],
            resolve_each_iteration,
            trajectory=trajectory,
        )
        rates = rate(sinr, params.gap(), params.bandwidth)
        below = _removal_candidates(algorithm, sinr, targets, active[rows], rates, params.min_rate)
        has_removal = below.any(axis=1)

        finish = rows[~has_removal]
        keep = ~has_removal
        out_power[finish] = power[keep]
        out_sinr[finish] = sinr[keep]
        out_targets[finish] = targets[keep]
        out_itf[finish] = eff_itf[keep]
        out_stab[finish] = stab[keep]
        out_change[finish] = change[keep]
        out_flagged[finish] |= flagged[keep]
        done[finish] = True

        for offset in np.flatnonzero(has_removal):
            b = rows[offset]
            candidates = np.where(below[offset], gain_power[b], np.inf)
            worst = int(np.argmin(candidates))  # argmin takes the lowest index on ties
            active[b, worst] = False
            removed[b].append(worst)
            out_flagged[b] |= bool(flagged[offset])

    converged = (out_change < POWER_STABLE_REL_TOL) | ~active.any(axis=1)
    converged &= ~failed
    return BatchControlResult(
        power=out_power,
        sinr=out_sinr,
        target_sinr=out_targets,
        eff_interference=out_itf,
        active=active,
        removed=removed,
        rounds=rounds,
        converged=converged,
        stabilized_iteration=out_stab,
        target_flagged=out_flagged,
        failed=failed,
        failure_reasons=failure_reasons,
    )


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
    result: BatchControlResult,
    scenario: NetworkScenario,
    params: EEParams,
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

    grid = default_sweep_grid(params.max_power, NASH_DEVIATION_POINTS)
    violations: list[tuple[int, float, float]] = []
    max_improvement = 0.0
    for k in np.flatnonzero(active):
        base = float(utility(power[k], sinr[k], params, gap))
        deviated = utility(grid, grid / eff_interference[k], params, gap)
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
        others = run_control_batch(
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

"""Per-user EE maximization: optimal SINR, best response, quasiconcavity checks.

For fixed interference, the EE utility along the own-power direction is

    xi(s) = rate(s) * (L/M) * packet_success(s) / (s * I + p_c)

with I the user's effective interference.  Its stationary point solves

    M e^(-s) log2(1+g*s) + g(1-e^(-s))/((1+g*s) ln 2)
        = I log2(1+g*s)(1-e^(-s)) / (s*I + p_c)

where g is the SINR gap.  Dividing the right-hand side through by I shows the
root depends on I and p_c only via the ratio p_c/I; the solver works in that
form, which also makes the p_c=0 interference invariance exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoInteriorMaximumError
from .metrics import LN2, EEParams, utility

BRACKET_LOW = 1e-3
BRACKET_HIGH = 1e3
BRACKET_MAX = 1e6
SINR_ABS_TOL = 1e-9


@dataclass(frozen=True)
class OptimalSinr:
    """Solution of the EE stationarity condition for one user."""

    gamma_star: float
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class BestResponse:
    """Power maximizing a user's own EE given everyone else's powers."""

    power: float
    capped: bool
    achieved_sinr: float


def utility_vs_sinr(sinr, eff_interference, params: EEParams, gap):
    """EE along the own-power direction (power = sinr * eff_interference)."""
    sinr = np.asarray(sinr, dtype=float)
    return utility(sinr * eff_interference, sinr, params, gap)


def _stationarity(sinr, gap, packet_bits, cost_ratio, with_derivative=True):
    """Residual (and derivative) of the EE stationarity condition.

    ``cost_ratio`` is circuit_power / eff_interference.  The residual is
    positive where the utility still rises with SINR and negative past the
    maximum.
    """
    decay = np.exp(-sinr)
    success1 = -np.expm1(-sinr)  # 1 - e^(-s)
    scaled = 1.0 + gap * sinr
    se = np.log1p(gap * sinr) / LN2
    se_slope = gap / (scaled * LN2)
    denom = sinr + cost_ratio
    residual = packet_bits * decay * se + success1 * se_slope - se * success1 / denom
    if not with_derivative:
        return residual, None
    derivative = (
        decay * se_slope * (packet_bits + 1.0)
        - packet_bits * decay * se
        - success1 * gap * gap / (scaled * scaled * LN2)
        - (se_slope * success1 + se * decay) / denom
        + se * success1 / (denom * denom)
    )
    return residual, derivative


def solve_optimal_sinr_batch(
    eff_interference: np.ndarray,
    params: EEParams,
    gap,
    initial_guess: np.ndarray | None = None,
    tol: float = SINR_ABS_TOL,
    max_iter: int = 160,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized solve of the stationarity condition.

    Returns ``(sinr_star, no_interior, residual, search_high)``.  Entries whose
    residual never changes sign up to the expanded bracket ceiling (utility
    monotone on the search range) get ``sinr_star = search_high`` and are
    flagged in ``no_interior`` instead of raising.

    Newton steps are taken inside a maintained sign-change bracket and fall
    back to bisection whenever they leave it, so convergence is unconditional;
    converged entries are frozen, which keeps every element's result
    independent of what else is in the batch.
    """
    itf = np.asarray(eff_interference, dtype=float)
    shape = itf.shape
    flat = itf.reshape(-1)
    if np.any(flat <= 0.0) or not np.all(np.isfinite(flat)):
        raise ValueError("eff_interference must be positive and finite")
    gap_flat = np.broadcast_to(np.asarray(gap, dtype=float), shape).reshape(-1).astype(float)
    packet_bits = float(params.packet_bits)
    cost_ratio = params.circuit_power / flat

    n = flat.size
    lo = np.full(n, BRACKET_LOW)
    hi = np.full(n, BRACKET_HIGH)
    no_interior = np.zeros(n, dtype=bool)
    bracketed = np.zeros(n, dtype=bool)
    x = np.full(n, np.sqrt(BRACKET_LOW * BRACKET_HIGH))

    if initial_guess is not None:
        guess = np.broadcast_to(np.asarray(initial_guess, dtype=float), shape).reshape(-1)
        usable = np.isfinite(guess) & (guess > 0.0)
        if usable.any():
            # A tight bracket around last iteration's root usually still holds,
            # skipping the cold bracketing work entirely.
            lo_warm = np.where(usable, guess * 0.8, 1.0)
            hi_warm = np.where(usable, guess * 1.25, 2.0)
            res_lo_w, _ = _stationarity(
                lo_warm, gap_flat, packet_bits, cost_ratio, with_derivative=False
            )
            res_hi_w, _ = _stationarity(
                hi_warm, gap_flat, packet_bits, cost_ratio, with_derivative=False
            )
            bracketed = usable & (res_lo_w > 0.0) & (res_hi_w <= 0.0)
            lo = np.where(bracketed, lo_warm, lo)
            hi = np.where(bracketed, hi_warm, hi)
            x = np.where(bracketed, guess, x)

    cold = np.flatnonzero(~bracketed)
    if cold.size:
        res_lo, _ = _stationarity(
            lo[cold], gap_flat[cold], packet_bits, cost_ratio[cold], with_derivative=False
        )
        if np.any(res_lo <= 0.0):
            # The residual is provably positive as sinr -> 0+ for valid gap and
            # packet sizes, so a non-positive value here means broken inputs.
            raise ValueError("stationarity residual not positive at the lower bracket end")
        hi_cold = hi[cold]
        res_hi, _ = _stationarity(
            hi_cold, gap_flat[cold], packet_bits, cost_ratio[cold], with_derivative=False
        )
        while True:
            expand = (res_hi > 0.0) & (hi_cold < BRACKET_MAX)
            if not expand.any():
                break
            hi_cold[expand] = np.minimum(hi_cold[expand] * 10.0, BRACKET_MAX)
            res_hi[expand], _ = _stationarity(
                hi_cold[expand],
                gap_flat[cold][expand],
                packet_bits,
                cost_ratio[cold][expand],
                with_derivative=False,
            )
        hi[cold] = hi_cold
        no_interior[cold] = res_hi > 0.0

    search_high = hi.copy()
    x = np.where(no_interior, hi, np.clip(x, lo, hi))

    # The loop works on a compacted view of the unconverged entries so that a
    # few slowly bisecting stragglers do not keep the whole array busy; results
    # are element-local, so compaction cannot change any entry's value.
    idx = np.flatnonzero(~no_interior)
    x_w, lo_w, hi_w = x[idx].copy(), lo[idx].copy(), hi[idx].copy()
    gap_w, rho_w = gap_flat[idx], cost_ratio[idx]
    for _ in range(max_iter):
        if idx.size == 0:
            break
        residual, derivative = _stationarity(x_w, gap_w, packet_bits, rho_w)
        positive = residual > 0.0
        lo_w = np.where(positive, x_w, lo_w)
        hi_w = np.where(positive, hi_w, x_w)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x_w - residual / derivative
        inside = np.isfinite(newton) & (newton > lo_w) & (newton < hi_w)
        # Near the root the Newton step length bounds the remaining error, so
        # a tiny accepted step terminates without waiting for the bracket.
        small_step = inside & (np.abs(newton - x_w) <= tol)
        narrow = (hi_w - lo_w) <= tol
        finished = narrow | small_step
        if finished.any():
            x[idx[finished]] = np.where(small_step, newton, 0.5 * (lo_w + hi_w))[finished]
            keep = ~finished
            idx, x_w, lo_w, hi_w = idx[keep], x_w[keep], lo_w[keep], hi_w[keep]
            gap_w, rho_w = gap_w[keep], rho_w[keep]
            newton, inside = newton[keep], inside[keep]
            if idx.size == 0:
                break
        x_w = np.where(inside, newton, 0.5 * (lo_w + hi_w))
    if idx.size:
        x[idx] = 0.5 * (lo_w + hi_w)

    residual, _ = _stationarity(x, gap_flat, packet_bits, cost_ratio, with_derivative=False)
    return (
        x.reshape(shape),
        no_interior.reshape(shape),
        residual.reshape(shape),
        search_high.reshape(shape),
    )


def optimal_sinr(eff_interference: float, params: EEParams, gap: float) -> OptimalSinr:
    """EE-optimal SINR for one user at fixed effective interference."""
    sinr, no_interior, residual, search_high = solve_optimal_sinr_batch(
        np.asarray([eff_interference], dtype=float), params, gap
    )
    bracket = (BRACKET_LOW, float(search_high[0]))
    if no_interior[0]:
        raise NoInteriorMaximumError(
            "EE utility is monotone up to the bracket ceiling "
            f"{bracket[1]:.3e}; no interior maximum found",
            bracket=bracket,
        )
    return OptimalSinr(gamma_star=float(sinr[0]), bracket=bracket, residual=float(residual[0]))


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


def scan_unimodal(values: np.ndarray, rel_tol: float = 1e-12) -> tuple[int, int | None, float]:
    """Scan sampled values for a single peak.

    Returns ``(peak, step, slack)``: the argmax, the first step i (values[i]
    to values[i + 1]) that falls before the peak or rises after it by more
    than ``slack``, or None when there is none, and ``slack`` itself, which
    is ``rel_tol`` times the largest magnitude sampled.  Any number of
    samples from one up is accepted.
    """
    scale = float(np.max(np.abs(values)))
    slack = rel_tol * (scale if scale > 0.0 else 1.0)
    peak = int(np.argmax(values))
    diffs = np.diff(values)
    before = np.flatnonzero(diffs[:peak] < -slack)
    if before.size:
        return peak, int(before[0]), slack
    after = np.flatnonzero(diffs[peak:] > slack)
    return peak, (int(after[0]) + peak if after.size else None), slack


def check_quasiconcavity(
    sampler: Callable[[np.ndarray], np.ndarray],
    sinr_grid: np.ndarray,
    rng: np.random.Generator | None = None,
    rel_tol: float = 1e-12,
    pair_checks: int = 64,
) -> QuasiconcavityReport:
    """Verify the sampled utility rises to one peak and then falls.

    Any dip before the peak or rise after it beyond ``rel_tol`` (relative to
    the largest magnitude on the grid) fails the scan, and the witnessing
    triple of grid points is reported.  Random convex combinations of grid
    points are additionally checked against the defining inequality
    z(l*x1 + (1-l)*x2) >= min(z(x1), z(x2)).
    """
    grid = np.asarray(sinr_grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("sinr_grid must be strictly increasing with >= 3 points")
    values = np.asarray(sampler(grid), dtype=float)
    peak, i, slack = scan_unimodal(values, rel_tol)
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

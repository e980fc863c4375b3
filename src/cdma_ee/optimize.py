"""Per-user EE maximization: the optimal-SINR solver and the unimodality scan.

For fixed interference, the EE utility along the own-power direction is

    xi(s) = rate(s) * (L/M) * packet_success(s) / (s * I + p_c)

with I the user's effective interference.  Its stationary point solves

    M e^(-s) log2(1+g*s) + g(1-e^(-s))/((1+g*s) ln 2)
        = I log2(1+g*s)(1-e^(-s)) / (s*I + p_c)

where g is the SINR gap of the shared BER target.  Dividing the right-hand
side through by I shows the root depends on I and p_c only via the ratio
p_c/I; the solver works in that form, which also makes the p_c=0
interference invariance exact.
"""

from __future__ import annotations

import numpy as np

from .metrics import LN2, EEParams

BRACKET_LOW = 1e-3
BRACKET_HIGH = 1e3
BRACKET_MAX = 1e6
SINR_ABS_TOL = 1e-9
MAX_STEPS = 160
UNIMODAL_REL_TOL = 1e-12


def _stationarity(sinr, gap, packet_bits, cost_ratio, with_derivative=True):
    """Residual (and derivative) of the EE stationarity condition.

    ``cost_ratio`` is circuit_power / eff_interference.  The residual is
    positive where the utility still rises with SINR and negative past the
    maximum.
    """
    # Shared terms are computed once; IEEE products commute exactly, so the
    # values equal those of writing each term out in place.
    negative = -sinr
    decay = np.exp(negative)
    success1 = -np.expm1(negative)  # 1 - e^(-s)
    gap_sinr = gap * sinr
    scaled = 1.0 + gap_sinr
    se = np.log1p(gap_sinr) / LN2
    se_slope = gap / (scaled * LN2)
    denom = sinr + cost_ratio
    delivered = packet_bits * decay * se
    slope_term = success1 * se_slope
    cost_term = se * success1
    residual = delivered + slope_term - cost_term / denom
    if not with_derivative:
        return residual, None
    derivative = (
        decay * se_slope * (packet_bits + 1.0)
        - delivered
        - success1 * gap * gap / (scaled * scaled * LN2)
        - (slope_term + se * decay) / denom
        + cost_term / (denom * denom)
    )
    return residual, derivative


def solve_optimal_sinr_batch(
    eff_interference: np.ndarray,
    params: EEParams,
    initial_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized solve of the stationarity condition.

    Returns ``(sinr_star, no_interior)``.  Entries whose residual never
    changes sign up to the bracket ceiling ``BRACKET_MAX`` (utility monotone
    on the search range) get ``sinr_star = BRACKET_MAX`` and are flagged in
    ``no_interior``.

    Newton steps are taken inside a maintained sign-change bracket and fall
    back to bisection whenever they leave it, so convergence is unconditional.
    An entry ends once its Newton step is at most ``SINR_ABS_TOL`` long (its
    result is that step, clipped into the bracket) or its bracket is that
    narrow; finished entries are frozen, which keeps every element's result
    independent of what else is in the batch.
    """
    itf = np.asarray(eff_interference, dtype=float)
    shape = itf.shape
    flat = itf.reshape(-1)
    if np.any(flat <= 0.0) or not np.all(np.isfinite(flat)):
        raise ValueError("eff_interference must be positive and finite")
    gap = params.gap()
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
            # skipping the cold bracketing work entirely.  Capping it at the
            # ceiling leaves an entry without an interior maximum to the cold
            # path, so its result and flag do not depend on the guess.
            lo_warm = np.where(usable, guess * 0.8, 1.0)
            hi_warm = np.where(usable, np.minimum(guess * 1.25, BRACKET_MAX), 2.0)
            res_lo_w, _ = _stationarity(lo_warm, gap, packet_bits, cost_ratio, False)
            res_hi_w, _ = _stationarity(hi_warm, gap, packet_bits, cost_ratio, False)
            bracketed = usable & (res_lo_w > 0.0) & (res_hi_w <= 0.0)
            lo = np.where(bracketed, lo_warm, lo)
            hi = np.where(bracketed, hi_warm, hi)
            x = np.where(bracketed, guess, x)

    cold = np.flatnonzero(~bracketed)
    if cold.size:
        res_lo, _ = _stationarity(lo[cold], gap, packet_bits, cost_ratio[cold], False)
        if np.any(res_lo <= 0.0):
            # The residual is provably positive as sinr -> 0+ for valid gap and
            # packet sizes, so a non-positive value here means broken inputs.
            raise ValueError("stationarity residual not positive at the lower bracket end")
        hi_cold = hi[cold]
        res_hi, _ = _stationarity(hi_cold, gap, packet_bits, cost_ratio[cold], False)
        while True:
            expand = (res_hi > 0.0) & (hi_cold < BRACKET_MAX)
            if not expand.any():
                break
            hi_cold[expand] = np.minimum(hi_cold[expand] * 10.0, BRACKET_MAX)
            res_hi[expand], _ = _stationarity(
                hi_cold[expand], gap, packet_bits, cost_ratio[cold][expand], False
            )
        hi[cold] = hi_cold
        no_interior[cold] = res_hi > 0.0

    x = np.where(no_interior, hi, np.clip(x, lo, hi))

    # The loop works on a compacted view of the unconverged entries so that a
    # few slowly bisecting stragglers do not keep the whole array busy; results
    # are element-local, so compaction cannot change any entry's value.
    idx = np.flatnonzero(~no_interior)
    x_w, lo_w, hi_w = x[idx].copy(), lo[idx].copy(), hi[idx].copy()
    rho_w = cost_ratio[idx]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero derivative gives a NaN step
        for _ in range(MAX_STEPS):
            if idx.size == 0:
                break
            residual, derivative = _stationarity(x_w, gap, packet_bits, rho_w)
            positive = residual > 0.0
            lo_w = np.where(positive, x_w, lo_w)
            hi_w = np.where(positive, hi_w, x_w)
            newton = x_w - residual / derivative
            inside = np.isfinite(newton) & (newton > lo_w) & (newton < hi_w)
            # Near the root the Newton step length bounds the remaining error, so
            # a tiny step terminates without waiting for the bracket, even a
            # zero-length one from a guess already on the root, which the strict
            # bracket test would reject.  A NaN or infinite step compares false.
            small_step = np.abs(newton - x_w) <= SINR_ABS_TOL
            narrow = (hi_w - lo_w) <= SINR_ABS_TOL
            finished = narrow | small_step
            if finished.any():
                done = np.where(small_step, np.clip(newton, lo_w, hi_w), 0.5 * (lo_w + hi_w))
                x[idx[finished]] = done[finished]
                keep = ~finished
                idx, x_w, lo_w, hi_w = idx[keep], x_w[keep], lo_w[keep], hi_w[keep]
                rho_w, newton, inside = rho_w[keep], newton[keep], inside[keep]
                if idx.size == 0:
                    break
            x_w = np.where(inside, newton, 0.5 * (lo_w + hi_w))
    if idx.size:
        x[idx] = 0.5 * (lo_w + hi_w)
    return x.reshape(shape), no_interior.reshape(shape)


def scan_unimodal(values: np.ndarray) -> tuple[int, int | None, float]:
    """Scan sampled values for a single peak.

    Returns ``(peak, step, slack)``: the argmax, the first step i (values[i]
    to values[i + 1]) that falls before the peak or rises after it by more
    than ``slack``, or None when there is none, and ``slack`` itself, which
    is ``UNIMODAL_REL_TOL`` times the largest magnitude sampled.  Any number
    of samples from one up is accepted.
    """
    scale = float(np.max(np.abs(values)))
    slack = UNIMODAL_REL_TOL * (scale if scale > 0.0 else 1.0)
    peak = int(np.argmax(values))
    diffs = np.diff(values)
    before = np.flatnonzero(diffs[:peak] < -slack)
    if before.size:
        return peak, int(before[0]), slack
    after = np.flatnonzero(diffs[peak:] > slack)
    return peak, (int(after[0]) + peak if after.size else None), slack



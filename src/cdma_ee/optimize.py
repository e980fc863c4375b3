"""Per-user EE maximization: the optimal-SINR solver and the unimodality scan.

For fixed interference, the EE utility along the own-power direction is

    xi(s) = rate(s) * (L/M) * packet_success(s) / (s * I + p_c)

with I the user's effective interference.  Its stationary point solves

    M e^(-s) log2(1+g*s) + g(1-e^(-s))/((1+g*s) ln 2)
        = I log2(1+g*s)(1-e^(-s)) / (s*I + p_c)

where g is the SINR gap of the shared BER target.  Dividing the right-hand
side through by I shows the root depends on I and p_c only via the ratio
rho = p_c/I; the solver works in that form, which also makes the p_c=0
interference invariance exact.  It is stateless: once per parameter set a
table of the root over log rho gives every solve a start that depends on rho
alone, and a fixed number of Newton steps from there gives the root.
"""

from __future__ import annotations

import functools

import numpy as np

from .metrics import LN2, EEParams

BRACKET_LOW = 1e-3
BRACKET_MAX = 1e6
# The start table holds log s* at TABLE_NODES uniform nodes of log rho over
# [-TABLE_LOG_RHO, TABLE_LOG_RHO]; a solve interpolates it and takes
# NEWTON_STEPS Newton steps from there.
TABLE_LOG_RHO = 30.0
TABLE_NODES = 1201
NEWTON_STEPS = 3
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


@functools.lru_cache(maxsize=None)
def _root_table(gap, packet_bits):
    """log s* at each start-table node of log rho, by bisection in log s.

    The upper end lies past ``BRACKET_MAX``, so the table is smooth up to the
    ceiling.  The residual at ``BRACKET_LOW`` rises with rho, so its sign at
    rho = 0 checks the lower end for every input.
    """
    floor, _ = _stationarity(BRACKET_LOW, gap, packet_bits, 0.0, False)
    if not floor > 0.0:  # provably positive for a valid gap and packet size
        raise ValueError("stationarity residual not positive at the lower bracket end")
    rho = np.exp(np.linspace(-TABLE_LOG_RHO, TABLE_LOG_RHO, TABLE_NODES))
    lo = np.full(TABLE_NODES, np.log(BRACKET_LOW))
    hi = np.full(TABLE_NODES, np.log(100.0 * BRACKET_MAX))
    for _ in range(64):  # halves the bracket past double precision
        mid = 0.5 * (lo + hi)
        rising = _stationarity(np.exp(mid), gap, packet_bits, rho, False)[0] > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    return lo


def solve_optimal_sinr_batch(
    eff_interference: np.ndarray, params: EEParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized, stateless solve of the stationarity condition.

    Returns ``(sinr_star, no_interior)``.  Entries whose residual is still
    positive at the bracket ceiling ``BRACKET_MAX`` (utility rising over the
    whole search range) get ``sinr_star = BRACKET_MAX`` and are flagged in
    ``no_interior``.

    Each entry starts from the linear interpolation of log s* in the start
    table of its parameters (built on first use) at its log rho, clipped to
    the table, and takes ``NEWTON_STEPS`` Newton steps.  The start and the
    steps depend on rho alone, so an entry's result depends on nothing else:
    not on earlier solves, nor on what else is in the batch.
    """
    itf = np.asarray(eff_interference, dtype=float)
    if np.any(itf <= 0.0) or not np.all(np.isfinite(itf)):
        raise ValueError("eff_interference must be positive and finite")
    gap, packet_bits = params.gap(), params.packet_bits
    table = _root_table(gap, packet_bits)
    rho = params.circuit_power / itf
    with np.errstate(divide="ignore"):  # rho = 0 clips to the table's first node
        log_rho = np.clip(np.log(rho), -TABLE_LOG_RHO, TABLE_LOG_RHO)
    position = (log_rho + TABLE_LOG_RHO) * ((TABLE_NODES - 1) / (2.0 * TABLE_LOG_RHO))
    cell = np.minimum(position.astype(int), TABLE_NODES - 2)
    start = table[cell]
    x = np.exp(start + (position - cell) * (table[cell + 1] - start))
    # Entries past the ceiling may step anywhere; their result is replaced.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_STEPS):
            residual, derivative = _stationarity(x, gap, packet_bits, rho)
            x = x - residual / derivative
    no_interior = _stationarity(BRACKET_MAX, gap, packet_bits, rho, False)[0] > 0.0
    return np.where(no_interior, BRACKET_MAX, x), no_interior


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



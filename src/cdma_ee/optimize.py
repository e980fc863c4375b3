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
table over log rho gives every solve a start that depends on rho alone, from
which one Newton step gives the root, and a threshold on rho gives its flag.
"""

from __future__ import annotations

import functools

import numpy as np

from .metrics import LN2, EEParams

BRACKET_LOW = 1e-3
BRACKET_MAX = 1e6
# The root table holds a cubic for log s* between each two of its uniform nodes of log rho.
TABLE_LOG_RHO = 30.0
TABLE_NODES = 4801
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
    """(4, TABLE_NODES - 1) cubic coefficients of log s* per cell, and the flag threshold.

    Column i holds c0..c3, in u over [0, 1], of the Hermite cubic on cell i
    through log s* at its nodes, bisected in log s up past ``BRACKET_MAX``.
    The residual at ``BRACKET_LOW`` rises with rho, so its sign at rho = 0
    checks the lower end for every input.  At ``BRACKET_MAX`` e^(-s) is 0, so
    the residual is a constant minus a constant over (BRACKET_MAX + rho): in
    floats it is positive exactly from the threshold, the least such rho, on.
    """
    floor, _ = _stationarity(BRACKET_LOW, gap, packet_bits, 0.0, False)
    if not floor > 0.0:  # provably positive for a valid gap and packet size
        raise ValueError("stationarity residual not positive at the lower bracket end")
    rho = np.exp(np.linspace(-TABLE_LOG_RHO, TABLE_LOG_RHO, TABLE_NODES))
    lo, hi = np.log(BRACKET_LOW), np.log(100.0 * BRACKET_MAX)
    for _ in range(64):  # halves the bracket past double precision
        mid = 0.5 * (lo + hi)
        rising = _stationarity(np.exp(mid), gap, packet_bits, rho, False)[0] > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    root = np.exp(lo)
    _, f_s = _stationarity(root, gap, packet_bits, rho)
    f_rho = np.log1p(gap * root) / LN2 * -np.expm1(-root) / (root + rho) ** 2
    slope = -rho * f_rho / (root * f_s) * (2.0 * TABLE_LOG_RHO / (TABLE_NODES - 1))  # d log s*/du
    y0, y1, m0, m1 = lo[:-1], lo[1:], slope[:-1], slope[1:]
    coefficients = np.stack([y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, m0 + m1 - 2.0 * (y1 - y0)])
    # Bisect the bit patterns, which order non-negative doubles; the ends are never evaluated.
    below, above = -1, int(np.array(np.inf).view(np.int64)) + 1
    while above - below > 1:
        middle = (below + above) // 2
        ratio = np.array(middle).view(np.float64)
        rising = _stationarity(BRACKET_MAX, gap, packet_bits, ratio, False)[0] > 0.0
        below, above = (below, middle) if rising else (middle, above)
    return coefficients, float(np.array(above).view(np.float64))


def solve_optimal_sinr_batch(
    eff_interference: np.ndarray, params: EEParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized, stateless solve of the stationarity condition.

    Returns ``(sinr_star, no_interior)``.  Entries whose residual is still
    positive at the bracket ceiling ``BRACKET_MAX`` (utility rising over the
    whole search range) get ``sinr_star = BRACKET_MAX`` and are flagged in
    ``no_interior``: exactly the entries whose rho reaches the threshold.

    Each entry starts from its cell's cubic in the table of its parameters
    (built on first use) at its log rho, clipped to the table, and takes one
    Newton step, so its result depends on rho alone: not on earlier solves,
    nor on the rest of its batch.
    """
    itf = np.asarray(eff_interference, dtype=float)
    if not (itf.min(initial=np.inf) > 0.0 and itf.max(initial=0.0) < np.inf):  # NaN too
        raise ValueError("eff_interference must be positive and finite")
    gap, packet_bits = params.gap(), params.packet_bits
    coefficients, threshold = _root_table(gap, packet_bits)
    # rho = 0 clips to the first node; flagged entries may step anywhere and are replaced.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = params.circuit_power / itf  # inf past the float range: flagged like any large rho
        position = np.log(rho, out=np.empty(itf.shape))  # temporaries of the input's shape
        np.maximum(-TABLE_LOG_RHO, position, out=position)  # bound first: np.clip's bits
        np.minimum(TABLE_LOG_RHO, position, out=position)
        position += TABLE_LOG_RHO
        position *= (TABLE_NODES - 1) / (2.0 * TABLE_LOG_RHO)
        cell = np.minimum(position.astype(int), TABLE_NODES - 2)
        u = np.subtract(position, cell, out=position)
        c0, c1, c2, c3 = np.take(coefficients, cell, axis=1)
        x = np.multiply(u, c3, out=np.empty(itf.shape))  # Horner: c0 + u (c1 + u (c2 + u c3))
        for c in (c2, c1):
            x += c
            x *= u
        x += c0
        np.exp(x, out=x)
        residual, derivative = _stationarity(x, gap, packet_bits, rho)
        residual /= derivative
        x -= residual
    no_interior = rho >= threshold
    x[no_interior] = BRACKET_MAX
    return x, no_interior


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



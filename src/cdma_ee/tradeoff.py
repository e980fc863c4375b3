"""EE-SE trade-off sweeps: sweep the interest user's power, find the EE peak,
and measure the spectral-efficiency gap to the top of the power range.

The interest user is index 0; interferers transmit at fixed powers.  Fading
is averaged over a configurable number of draws with the same draws reused at
every grid power (common random numbers keep the curves smooth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import check_gain_power, draw_channel
from .errors import ConfigurationError
from .metrics import EEParams, consumed_power, energy_efficiency, log_gain, packet_success
from .metrics import rate_of_log_gain
from .optimize import scan_unimodal
from .scenario import RECEIVERS
from .spreading import (
    SpreadingCodeSet,
    dec_eff_interference,
    decorrelator_load_error,
    mf_mai_weights,
    mf_sinr,
)

SWEEP_POINTS = 400
# Values per (draws x grid) block buffer: four of at most 48 KiB each, under glibc's mmap threshold.
BLOCK_VALUES = 6_144


@dataclass(frozen=True)
class TradeoffCurve:
    """Fading-averaged SE/EE curves along the interest user's power sweep."""

    powers: np.ndarray
    se: np.ndarray                  # bit/s/Hz, mean over fading draws
    ee: np.ndarray                  # bit/Joule, mean over fading draws
    sinr: np.ndarray                # linear, mean over fading draws
    max_ee_index: int
    receiver: str
    fading_draws: int
    se_monotone: bool
    ee_unimodal: bool
    coupling: float                 # mean interest gain power over interferers'

    @property
    def max_ee_power(self) -> float:
        return float(self.powers[self.max_ee_index])

    @property
    def max_ee_sinr(self) -> float:
        return float(self.sinr[self.max_ee_index])

    @property
    def lambda_gap(self) -> float:
        """SE at the grid's top power minus SE at the EE peak (>= 0)."""
        return float(self.se[-1] - self.se[self.max_ee_index])

    @property
    def coupling_reciprocal(self) -> float:
        return 1.0 / self.coupling


def default_sweep_grid(max_power: float, points: int = SWEEP_POINTS) -> np.ndarray:
    """Log-spaced powers spanning six decades up to the transmit cap."""
    return np.geomspace(1e-6 * max_power, max_power, points)


def sweep_tradeoff(
    distances,
    codes: SpreadingCodeSet,
    params: EEParams,
    receiver: str,
    interferer_power,
    sweep_points: int = SWEEP_POINTS,
    fading: str = "rayleigh",
    fading_draws: int = 5000,
    path_loss_exponent: float = 2.0,
    rng: int | None | np.random.SeedSequence | np.random.Generator = None,
) -> list[TradeoffCurve]:
    """Average SE/EE over fading draws at each power of ``default_sweep_grid``, one curve per
    row of ``distances`` (the users' distances in metres, interest user first), every curve
    on the same draws; curves with byte-equal interest-user interference are averaged once."""
    if receiver not in RECEIVERS:
        raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
    if sweep_points < 1:
        raise ConfigurationError("sweep_points must be >= 1")
    grid = default_sweep_grid(params.max_power, sweep_points)
    total_power = consumed_power(grid, params)  # utility's guards, once for every curve

    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[1] < 1:
        raise ConfigurationError("distances must be one row per curve, the interest user first")
    users = distances.shape[1]
    others = np.broadcast_to(np.asarray(interferer_power, dtype=float), (users - 1,))
    if np.any(others < 0.0):
        raise ConfigurationError("interferer powers must be >= 0")

    draws = 1 if fading == "none" else int(fading_draws)
    if draws < 1:
        raise ConfigurationError("fading_draws must be >= 1")

    if receiver == "dec" and (reason := decorrelator_load_error(users, codes.processing_gain)):
        raise ConfigurationError(reason)
    # MF inputs: the interest user's own power never enters its MAI; 0 stands in for it.
    power = np.broadcast_to(np.concatenate(([0.0], others)), (draws, users))
    weights = np.broadcast_to(mf_mai_weights(codes.correlation), (draws, users, users))

    gen = np.random.default_rng(rng)
    rewind = gen.bit_generator.state
    def interest_column(row):  # a function, so a curve's draws are freed before the next's
        gen.bit_generator.state = rewind
        gain_power = draw_channel(np.broadcast_to(row, (draws, users)), path_loss_exponent,
                                  fading, gen).gain_power
        check_gain_power(gain_power, params.noise_power)
        if receiver == "mf":
            _, eff_itf = mf_sinr(power, gain_power, weights, params.noise_power)
        else:
            eff_itf = dec_eff_interference(
                gain_power, codes.correlation, np.ones(users, dtype=bool), params.noise_power
            )
        # cumsum adds the draws in order too, where np.sum would add them pairwise.
        coupling = float("nan") if users == 1 else (
            (np.cumsum(gain_power[:, 0])[-1] / draws)
            / (np.cumsum(gain_power[:, 1:].mean(axis=1))[-1] / draws)
        )
        return eff_itf[:, 0].copy(), coupling
    columns = [interest_column(row) for row in distances]
    rows = min(max(1, BLOCK_VALUES // grid.size), draws)
    buffers = [np.empty((rows, grid.size)) for _ in range(4)]
    means, curves = {}, []
    for itf, coupling in columns:
        if (key := itf.tobytes()) not in means:
            means[key] = _mean_curves(grid, itf, total_power, params, buffers)
        se, ee, sinr = means[key].copy()
        monotone, unimodal = bool(np.all(np.diff(se) >= 0.0)), scan_unimodal(ee)[1] is None
        curves.append(TradeoffCurve(grid.copy(), se, ee, sinr, int(np.argmax(ee)), receiver,
                                    draws, monotone, unimodal, coupling))
    return curves


def _mean_curves(grid, itf, total_power, params: EEParams, buffers) -> np.ndarray:
    """Mean SE, EE and SINR per grid power over the interest user's interference draws."""
    gap, step = params.gap(), len(buffers[0])
    sums = np.zeros((3, grid.size))
    for block in np.split(itf[:, None], range(step, itf.size, step)):
        se, ee, sinr, success = (buffer[: len(block)] for buffer in buffers)
        np.divide(grid, block, out=sinr)
        nats = log_gain(sinr, gap, out=se)
        packet_success(sinr, params.packet_bits, out=success)
        rate = rate_of_log_gain(nats, params.bandwidth, out=ee)
        energy_efficiency(rate, success, total_power, params, out=ee)
        rate_of_log_gain(nats, 1.0, out=se)
        # Reducing [sum, *values] over the draws adds them one at a time in draw order, so
        # the means do not depend on the block size, where a pairwise np.sum would not.
        for values, total in zip((se, ee, sinr), sums):
            values[0] += total
            np.sum(values, axis=0, out=total)
    return sums / itf.size

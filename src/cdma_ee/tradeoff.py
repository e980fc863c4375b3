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
from .metrics import EEParams, rate, utility
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
# Values per (draws x grid) block of the sweep: bounds its temporaries whatever the grid size.
BLOCK_VALUES = 20_000


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
    rng: int | None | np.random.Generator = None,
) -> TradeoffCurve:
    """Average SE/EE over fading draws at each power of ``default_sweep_grid``.

    ``distances`` are the users' distances in metres, the interest user first.
    """
    if receiver not in RECEIVERS:
        raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
    if sweep_points < 1:
        raise ConfigurationError("sweep_points must be >= 1")
    grid = default_sweep_grid(params.max_power, sweep_points)

    distances = np.asarray(distances, dtype=float)
    users = distances.size
    if users < 1:
        raise ConfigurationError("distances must include the interest user")
    others = np.broadcast_to(np.asarray(interferer_power, dtype=float), (users - 1,))
    if np.any(others < 0.0):
        raise ConfigurationError("interferer powers must be >= 0")

    gap = params.gap()
    draws = 1 if fading == "none" else int(fading_draws)
    if draws < 1:
        raise ConfigurationError("fading_draws must be >= 1")

    if receiver == "dec" and (reason := decorrelator_load_error(users, codes.processing_gain)):
        raise ConfigurationError(reason)

    gain_power = draw_channel(
        np.broadcast_to(distances, (draws, users)), path_loss_exponent, fading, rng
    ).gain_power
    check_gain_power(gain_power, params.noise_power)
    if receiver == "mf":
        # The interest user's own power never enters its MAI; 0 stands in for it.
        power = np.broadcast_to(np.concatenate(([0.0], others)), gain_power.shape)
        weights = np.broadcast_to(mf_mai_weights(codes.correlation), (draws, users, users))
        _, eff_itf = mf_sinr(power, gain_power, weights, params.noise_power)
    else:
        eff_itf = dec_eff_interference(
            gain_power, codes.correlation, np.ones(users, dtype=bool), params.noise_power
        )

    # Stacking the running sums on a block and reducing over axis 0 adds the rows one at a
    # time in draw order, so the curves do not depend on the block size; the 1-D pairwise
    # np.sum, or running + block.sum(axis=0), would associate the additions differently.
    se_sum = ee_sum = sinr_sum = np.zeros(grid.size)
    step = max(1, BLOCK_VALUES // grid.size)
    for itf in np.split(eff_itf[:, 0], range(step, draws, step)):
        sinr = grid / itf[:, None]
        se_sum = np.vstack([se_sum, rate(sinr, gap, 1.0)]).sum(axis=0)
        ee_sum = np.vstack([ee_sum, utility(grid, sinr, params, gap)]).sum(axis=0)
        sinr_sum = np.vstack([sinr_sum, sinr]).sum(axis=0)

    se = se_sum / draws
    ee = ee_sum / draws
    sinr = sinr_sum / draws
    max_ee_index = int(np.argmax(ee))
    # cumsum adds the draws in order too, where np.sum would add them pairwise.
    coupling = (
        (np.cumsum(gain_power[:, 0])[-1] / draws)
        / (np.cumsum(gain_power[:, 1:].mean(axis=1))[-1] / draws)
        if users > 1
        else float("nan")
    )
    return TradeoffCurve(
        powers=grid,
        se=se,
        ee=ee,
        sinr=sinr,
        max_ee_index=max_ee_index,
        receiver=receiver,
        fading_draws=draws,
        se_monotone=bool(np.all(np.diff(se) >= 0.0)),
        ee_unimodal=scan_unimodal(ee)[1] is None,
        coupling=coupling,
    )


"""EE-SE trade-off sweeps: sweep the interest user's power, find the EE peak,
and measure the spectral-efficiency gap to the top of the power range.

The interest user is index 0; interferers transmit at fixed powers.  Fading
is averaged over a configurable number of draws with the same draws reused at
every grid power (common random numbers keep the curves smooth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Placement, coupling_parameter, draw_channel
from .errors import ConfigurationError, ReceiverUnavailableError
from .metrics import EEParams, spectral_efficiency, utility
from .optimize import scan_unimodal
from .scenario import RECEIVERS
from .seeding import ensure_rng
from .spreading import (
    SpreadingCodeSet,
    dec_eff_interference,
    decorrelator_load_error,
    mf_mai_weights,
    mf_sinr,
)

SWEEP_POINTS = 400


@dataclass(frozen=True)
class TradeoffCurve:
    """Fading-averaged SE/EE curves along the interest user's power sweep."""

    powers: np.ndarray
    se: np.ndarray                  # bit/s/Hz, mean over fading draws
    ee: np.ndarray                  # bit/Joule, mean over fading draws
    sinr: np.ndarray                # linear, mean over fading draws
    max_ee_index: int
    lambda_gap: float               # SE at top power minus SE at the EE peak
    receiver: str
    fading_draws: int
    se_monotone: bool
    ee_unimodal: bool
    coupling: float                 # mean interest gain power over interferers'
    coupling_reciprocal: float

    @property
    def max_ee_power(self) -> float:
        return float(self.powers[self.max_ee_index])

    @property
    def max_ee_sinr(self) -> float:
        return float(self.sinr[self.max_ee_index])


def default_sweep_grid(max_power: float, points: int = SWEEP_POINTS) -> np.ndarray:
    """Log-spaced powers spanning six decades up to the transmit cap."""
    return np.geomspace(1e-6 * max_power, max_power, points)


def sweep_tradeoff(
    placement: Placement,
    codes: SpreadingCodeSet,
    params: EEParams,
    receiver: str,
    interferer_power,
    sweep_powers: np.ndarray | None = None,
    fading: str = "rayleigh",
    fading_draws: int = 5000,
    path_loss_exponent: float = 2.0,
    rng: int | None | np.random.Generator = None,
) -> TradeoffCurve:
    """Average SE/EE over fading draws for every power on the sweep grid."""
    if receiver not in RECEIVERS:
        raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
    grid = default_sweep_grid(params.max_power) if sweep_powers is None else np.asarray(
        sweep_powers, dtype=float
    )
    if grid.size == 0:
        raise ConfigurationError("sweep grid must not be empty")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ConfigurationError("sweep grid must be strictly increasing and positive")
    if grid[-1] > params.max_power * (1.0 + 1e-12):
        raise ConfigurationError("sweep grid exceeds max_power")

    users = placement.user_count
    if users < 1:
        raise ConfigurationError("placement must contain the interest user")
    others = np.broadcast_to(np.asarray(interferer_power, dtype=float), (users - 1,))
    if np.any(others < 0.0):
        raise ConfigurationError("interferer powers must be >= 0")

    gap = np.asarray(params.gap(), dtype=float)
    gap0 = float(gap) if gap.ndim == 0 else float(gap[0])
    draws = 1 if fading == "none" else int(fading_draws)
    if draws < 1:
        raise ConfigurationError("fading_draws must be >= 1")
    gen = ensure_rng(rng)

    if receiver == "dec" and (reason := decorrelator_load_error(users, codes.processing_gain)):
        raise ReceiverUnavailableError(reason)

    gain_power = np.stack(
        [draw_channel(placement, path_loss_exponent, fading, gen).gain_power for _ in range(draws)]
    )
    if receiver == "mf":
        # The interest user's own power never enters its MAI; 0 stands in for it.
        power = np.broadcast_to(np.concatenate(([0.0], others)), gain_power.shape)
        weights = np.broadcast_to(mf_mai_weights(codes.correlation), (draws, users, users))
        _, eff_itf = mf_sinr(power, gain_power, weights, params.noise_power)
    else:
        eff_itf = dec_eff_interference(
            gain_power, codes.correlation, np.ones(users, dtype=bool), params.noise_power
        )

    se_sum = np.zeros(grid.size)
    ee_sum = np.zeros(grid.size)
    sinr_sum = np.zeros(grid.size)
    interest_gain_sum = 0.0
    interferer_gain_sum = 0.0
    for h2, itf in zip(gain_power, eff_itf[:, 0]):
        interest_gain_sum += h2[0]
        if users > 1:
            interferer_gain_sum += float(np.mean(h2[1:]))
        sinr = grid / itf
        se_sum += spectral_efficiency(sinr, gap0)
        ee_sum += utility(grid, sinr, params, gap0)
        sinr_sum += sinr

    se = se_sum / draws
    ee = ee_sum / draws
    sinr = sinr_sum / draws
    max_ee_index = int(np.argmax(ee))
    coupling = (
        coupling_parameter(interest_gain_sum / draws, interferer_gain_sum / draws)
        if users > 1
        else float("nan")
    )
    return TradeoffCurve(
        powers=grid,
        se=se,
        ee=ee,
        sinr=sinr,
        max_ee_index=max_ee_index,
        lambda_gap=float(se[-1] - se[max_ee_index]),
        receiver=receiver,
        fading_draws=draws,
        se_monotone=bool(np.all(np.diff(se) >= 0.0)),
        ee_unimodal=scan_unimodal(ee)[1] is None,
        coupling=coupling,
        coupling_reciprocal=(1.0 / coupling) if users > 1 else float("nan"),
    )


def gap_lambda(curve: TradeoffCurve) -> float:
    """SE at the grid's top power minus SE at the EE peak (>= 0)."""
    return float(curve.se[-1] - curve.se[curve.max_ee_index])

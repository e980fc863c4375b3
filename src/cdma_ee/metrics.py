"""Rate, spectral-efficiency and energy-efficiency quantities.

The achievable rate is a gap-adjusted Shannon rate w*log2(1 + gap*sinr); the
energy-efficiency utility of a user is

    rate * (info_bits/packet_bits) * packet_success(sinr) / (power + circuit_power)

in bit/Joule, with packet_success the probability-like model
(1 - exp(-sinr))^packet_bits of error-free packet reception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
# Above this BER the gap factor would reach 1, leaving its (0, 1) range.
BER_LIMIT = math.exp(-1.5) / 5.0


def dbm_to_watt(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def sinr_gap(ber: float) -> float:
    """SINR gap factor -1.5/ln(5*ber), in (0, 1) for valid BER targets."""
    if not 0.0 < ber < BER_LIMIT:
        raise ValueError(
            f"ber must lie in (0, {BER_LIMIT:.6g}) so the gap factor stays inside (0, 1)"
        )
    return float(-1.5 / np.log(5.0 * ber))


def rate(sinr, gap, bandwidth):
    """Gap-adjusted Shannon rate in bit/s."""
    bits = np.log1p(gap * np.asarray(sinr, dtype=float))
    bits *= bandwidth  # in place: a further temporary per call slows the trade-off sweep
    return bits / LN2


def packet_success(sinr, packet_bits):
    """(1 - exp(-sinr))^packet_bits, computed in log space to avoid underflow."""
    sinr = np.asarray(sinr, dtype=float)
    with np.errstate(divide="ignore"):
        return np.exp(packet_bits * np.log1p(-np.exp(-sinr)))


@dataclass(frozen=True)
class EEParams:
    """Constants of the energy-efficiency utility and the QoS targets.

    Powers are in watts, rates in bit/s.  Every user shares one QoS class:
    one BER target (hence one SINR gap) and one minimum rate.
    """

    packet_bits: int
    info_bits: int
    circuit_power: float
    bandwidth: float
    max_power: float
    noise_power: float
    ber: float = 1e-3
    min_rate: float = 0.0

    def __post_init__(self):
        if not 0 < self.info_bits <= self.packet_bits:
            raise ValueError("need 0 < info_bits <= packet_bits")
        if self.circuit_power < 0.0:
            raise ValueError("circuit_power must be >= 0")
        if self.max_power <= 0.0 or self.noise_power <= 0.0 or self.bandwidth <= 0.0:
            raise ValueError("max_power, noise_power and bandwidth must be positive")
        if self.min_rate < 0.0:
            raise ValueError("min_rate must be >= 0")
        # Validates the BER range; solved once here, as every solve reads it.
        object.__setattr__(self, "_gap", sinr_gap(self.ber))

    @property
    def load_fraction(self) -> float:
        return self.info_bits / self.packet_bits

    def gap(self) -> float:
        return self._gap


def utility(power, sinr, params: EEParams, gap) -> float | np.ndarray:
    """Per-user energy efficiency in bit/Joule."""
    power = np.asarray(power, dtype=float)
    if np.any(power < 0.0):
        raise ValueError("power must be >= 0")
    total_power = power + params.circuit_power
    if np.any(total_power <= 0.0):
        raise ValueError("power + circuit_power must be positive")
    return (
        rate(sinr, gap, params.bandwidth)
        * params.load_fraction
        * packet_success(sinr, params.packet_bits)
        / total_power
    )


def global_ee(rates, sinrs, powers, params: EEParams):
    """Network energy efficiency: delivered information rate over total power.

    Row-wise over the last axis: the vectors, (..., k), cover each network's
    *active* users only; a removed user contributes neither rate nor power.
    A network without power has an EE of 0.
    """
    rates = np.asarray(rates, dtype=float)
    delivered = params.load_fraction * rates * packet_success(sinrs, params.packet_bits)
    total_power = np.sum(np.asarray(powers, dtype=float) + params.circuit_power, axis=-1)
    ee = np.zeros(total_power.shape)
    np.divide(np.sum(delivered, axis=-1), total_power, out=ee, where=~(total_power <= 0.0))
    return ee if ee.ndim else float(ee)

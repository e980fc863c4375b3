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


def log_gain(sinr, gap, out=None):
    """ln(1 + gap*sinr): evaluated once, it gives the rate at any bandwidth."""
    return np.log1p(np.multiply(gap, sinr, out=out), out=out)


def rate_of_log_gain(nats, bandwidth, out=None):
    """Rate in bit/s from ``log_gain``: bandwidth * nats / ln 2."""
    return np.divide(np.multiply(nats, bandwidth, out=out), LN2, out=out)


def rate(sinr, gap, bandwidth):
    """Gap-adjusted Shannon rate in bit/s."""
    return rate_of_log_gain(log_gain(sinr, gap), bandwidth)


def packet_success(sinr, packet_bits, out=None):
    """(1 - exp(-sinr))^packet_bits, computed in log space to avoid underflow."""
    with np.errstate(divide="ignore"):
        failure = np.exp(np.negative(sinr, out=out), out=out)
        log_success = np.log1p(np.negative(failure, out=out), out=out)
        return np.exp(np.multiply(packet_bits, log_success, out=out), out=out)


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
        # Written so that NaN fails each check, as infinities do.
        if not 0.0 <= self.circuit_power < math.inf:
            raise ValueError("circuit_power must be finite and >= 0")
        if not all(0.0 < v < math.inf for v in (self.max_power, self.noise_power, self.bandwidth)):
            raise ValueError("max_power, noise_power and bandwidth must be finite and positive")
        if not 0.0 <= self.min_rate < math.inf:
            raise ValueError("min_rate must be finite and >= 0")
        # Validates the BER range; solved once here, as every solve reads it.
        object.__setattr__(self, "_gap", sinr_gap(self.ber))

    @property
    def load_fraction(self) -> float:
        return self.info_bits / self.packet_bits

    def gap(self) -> float:
        return self._gap


def consumed_power(power, params: EEParams) -> np.ndarray:
    """Transmit plus circuit power; refuses a negative power or a total that is not positive."""
    power = np.asarray(power, dtype=float)
    if np.any(power < 0.0):
        raise ValueError("power must be >= 0")
    if np.any((total_power := power + params.circuit_power) <= 0.0):
        raise ValueError("power + circuit_power must be positive")
    return total_power


def energy_efficiency(rate, success, total_power, params: EEParams, out=None):
    """Bit/Joule from a rate, its packet success and the consumed power."""
    ee = np.multiply(rate, params.load_fraction, out=out)
    return np.divide(np.multiply(ee, success, out=out), total_power, out=out)


def utility(power, sinr, params: EEParams, gap) -> float | np.ndarray:
    """Per-user energy efficiency in bit/Joule."""
    total_power = consumed_power(power, params)
    success = packet_success(sinr, params.packet_bits)
    return energy_efficiency(rate(sinr, gap, params.bandwidth), success, total_power, params)


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

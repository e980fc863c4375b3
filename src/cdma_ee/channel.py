"""User placement, distance-based path loss and flat Rayleigh fading.

Produces the uplink channel-gain vector used by both receivers: the gain of
user k is ``h_k = d_k^(-eta/2) * g_k`` with ``eta`` the path-loss exponent and
``g_k`` a zero-mean unit-variance complex Gaussian draw (or 1 when fading is
disabled), so that ``E|h_k|^2 = d_k^(-eta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FADING_KINDS = ("rayleigh", "none")


@dataclass(frozen=True)
class RingGeometry:
    """Users dropped with uniform radius on a ring around the base station."""

    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if self.inner_radius <= 0.0 or self.outer_radius <= 0.0:
            raise ConfigurationError("ring radii must be positive")
        if not self.inner_radius < self.outer_radius:
            raise ConfigurationError("ring needs inner_radius < outer_radius")


@dataclass(frozen=True)
class ChannelState:
    """Complex uplink gains and their squared magnitudes (gain_power = |h|^2)."""

    gains: np.ndarray
    gain_power: np.ndarray


def draw_placement(
    geometry: RingGeometry,
    user_count: int,
    rng: int | None | np.random.Generator = None,
) -> np.ndarray:
    """Draw user distances from the base station in metres, one per user:
    i.i.d. uniform radii in [inner_radius, outer_radius]."""
    if user_count < 1:
        raise ConfigurationError("user_count must be >= 1")
    gen = np.random.default_rng(rng)
    return gen.uniform(geometry.inner_radius, geometry.outer_radius, size=user_count)


def draw_channel(
    distances: np.ndarray,
    path_loss_exponent: float = 2.0,
    fading: str = "rayleigh",
    rng: int | None | np.random.Generator = None,
) -> ChannelState:
    """Combine deterministic path loss with one flat-fading draw per entry of ``distances``."""
    if path_loss_exponent <= 0.0:
        raise ConfigurationError("path_loss_exponent must be positive")
    if fading not in FADING_KINDS:
        raise ConfigurationError(f"fading must be one of {FADING_KINDS}, got {fading!r}")
    amplitude = np.asarray(distances, dtype=float) ** (-path_loss_exponent / 2.0)
    if fading == "none":
        gains = amplitude.astype(complex)
    else:
        gen = np.random.default_rng(rng)
        # A trailing (re, im) axis keeps the draws for K users a prefix of those for K+1,
        # and makes a (draws, K) array the same stream as `draws` successive (K,) calls.
        normals = gen.standard_normal((*amplitude.shape, 2))
        gains = amplitude * (normals[..., 0] + 1j * normals[..., 1]) / np.sqrt(2.0)
    gain_power = gains.real**2 + gains.imag**2
    return ChannelState(gains=gains, gain_power=gain_power)


def check_gain_power(gain_power: np.ndarray, noise_power: float) -> None:
    """Refuse gain powers that under- or overflow, and gains that overflow the smallest
    effective interference either receiver yields, ``noise_power / gain_power``."""
    if not np.all((gain_power >= np.finfo(float).tiny) & (gain_power < np.inf)):
        raise FloatingPointError("channel gain powers under- or overflow; check path_loss_exponent")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(noise_power / gain_power)):
            raise FloatingPointError("effective interference overflows; check noise_power_w")
